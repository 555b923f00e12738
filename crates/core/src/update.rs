//! The update statement: `update C set a = a + Δ where key < K`.
//!
//! The write-side counterpart of [`select`](crate::select): an
//! [`IndexRangeScan`](OpKind::IndexRangeScan) drains the qualifying
//! `(key, rid)` pairs (rid-sorted, the §4.3 lesson — updates walk the
//! data file sequentially too), then an [`Update`](OpKind::Update)
//! operator rewrites each object through
//! [`maintenance::update_with_indexes`], which re-keys exactly the
//! indexes the object's header lists and fixes their rids when the
//! rewrite relocates the record. Both operators run through one
//! [`ExecContext`], so the per-operator counter rows sum field-for-field
//! to the query totals — the PR 3 attribution invariant extends to
//! writes unchanged.
//!
//! This is what the concurrent service runs for its mixed read/write
//! scenarios: the statement's dirtied pages become the session's
//! write-set, published (or aborted) by the MVCC commit path in
//! `tq-server`.

use crate::exec::{self, CancelToken, ExecContext, ExecTrace, OpKind};
use crate::maintenance::{self, MaintainedIndex};
use tq_index::BTreeIndex;
use tq_objstore::{Object, ObjectStore, Value};

/// One range-predicated additive update.
#[derive(Clone, Debug)]
pub struct UpdateSpec {
    /// Collection label (trace rows and diagnostics).
    pub collection: String,
    /// Exclusive upper bound on the scan index's key.
    pub key_limit: i64,
    /// The Int attribute to add `delta` to.
    pub set_attr: usize,
    /// The increment (wrapping; 0 is a valid "touch" update that
    /// rewrites records without re-keying anything).
    pub delta: i32,
}

/// What an update statement did (plus its operator trace).
#[derive(Clone, Debug, Default)]
pub struct UpdateOutcome {
    /// `(key, rid)` pairs the range scan produced.
    pub scanned: u64,
    /// Objects rewritten.
    pub updated: u64,
    /// Rewrites that relocated the record (left a forwarder).
    pub relocated: u64,
    /// Index entries re-keyed or re-addressed.
    pub index_entries_updated: u64,
    /// Per-operator attribution for the statement window.
    pub trace: ExecTrace,
}

/// Runs one update statement over `store`.
///
/// `scan_index` drives the range predicate; `maintained` is the index
/// registry handed to [`maintenance::update_with_indexes`] — it must
/// contain every index the touched objects' headers list (the engine
/// invariant the maintenance layer asserts). The scan index may appear
/// in the registry as a separate clone of its descriptor: the scan
/// drains fully before the first rewrite, so the descriptor it reads
/// through is never stale.
///
/// With a [`CancelToken`], cancellation unwinds with a
/// [`Cancelled`](crate::exec::Cancelled) payload between object
/// rewrites; the half-applied store must then be discarded wholesale
/// (which is exactly what the server's session layer does).
pub fn run_update(
    store: &mut ObjectStore,
    scan_index: &BTreeIndex,
    maintained: &mut [MaintainedIndex<'_>],
    spec: &UpdateSpec,
    cancel: Option<CancelToken>,
) -> UpdateOutcome {
    let mut ctx = ExecContext::new(store);
    if let Some(token) = cancel {
        ctx.set_cancel(token);
    }
    let pairs =
        exec::index_range_scan(&mut ctx, scan_index, spec.key_limit, true, &spec.collection);
    let scanned = pairs.len() as u64;
    let mut updated = 0u64;
    let mut relocated = 0u64;
    let mut index_entries_updated = 0u64;
    ctx.op(OpKind::Update, &spec.collection, |ctx| {
        // One shell for the statement: each decode reuses its strings.
        let mut old = Object::default();
        for (_, rid) in pairs {
            ctx.with_object(rid, |_ctx, g| {
                g.decode_into(&mut old).expect("fetched record decodes")
            });
            let values = &mut old.values;
            ctx.store
                .charge_attr_access(old.header.class, spec.set_attr);
            let old = values[spec.set_attr]
                .as_int()
                .expect("updated attribute must be Int");
            values[spec.set_attr] = Value::Int(old.wrapping_add(spec.delta));
            let report = maintenance::update_with_indexes(ctx.store, maintained, rid, values);
            updated += 1;
            relocated += report.relocated as u64;
            index_entries_updated += report.indexes_updated as u64;
        }
    });
    let trace = ctx.finish();
    UpdateOutcome {
        scanned,
        updated,
        relocated,
        index_entries_updated,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::OpCounters;
    use tq_objstore::{AttrType, Rid, Schema};
    use tq_pagestore::{CacheConfig, CostModel, StorageStack};

    const KEY: usize = 0;
    const VAL: usize = 1;

    /// `Item { key: Int, val: Int }`, indexed on both attributes.
    fn setup(n: i64) -> (ObjectStore, Vec<Rid>, BTreeIndex, BTreeIndex) {
        let mut schema = Schema::new();
        let item = schema.add_class("Item", vec![("key", AttrType::Int), ("val", AttrType::Int)]);
        let stack = StorageStack::new(CostModel::sparc20(), CacheConfig::default());
        let mut store = ObjectStore::new(schema, stack);
        let file = store.create_file("items");
        let rids: Vec<Rid> = (0..n)
            .map(|i| {
                store.insert(
                    file,
                    item,
                    &[Value::Int(i as i32), Value::Int((i * 7 % n) as i32)],
                    true,
                )
            })
            .collect();
        store.create_collection("Items", item, &rids);
        let key_entries: Vec<(i64, Rid)> = rids
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as i64, r))
            .collect();
        let idx_key = BTreeIndex::bulk_build(store.stack_mut(), 1, "idx.key", true, &key_entries);
        let mut val_entries: Vec<(i64, Rid)> = rids
            .iter()
            .enumerate()
            .map(|(i, &r)| ((i as i64 * 7) % n, r))
            .collect();
        val_entries.sort_unstable();
        let idx_val = BTreeIndex::bulk_build(store.stack_mut(), 2, "idx.val", false, &val_entries);
        store.register_index_on_collection("Items", 1);
        store.register_index_on_collection("Items", 2);
        store.cold_restart();
        store.reset_metrics();
        (store, rids, idx_key, idx_val)
    }

    fn spec(limit: i64, delta: i32) -> UpdateSpec {
        UpdateSpec {
            collection: "Items".into(),
            key_limit: limit,
            set_attr: VAL,
            delta,
        }
    }

    #[test]
    fn updates_qualifying_objects_and_rekeys_value_index() {
        let (mut store, rids, mut idx_key, mut idx_val) = setup(40);
        let out = {
            let scan = idx_key.clone();
            let mut reg = [
                MaintainedIndex {
                    index: &mut idx_key,
                    key_attr: KEY,
                },
                MaintainedIndex {
                    index: &mut idx_val,
                    key_attr: VAL,
                },
            ];
            run_update(&mut store, &scan, &mut reg, &spec(10, 1000), None)
        };
        assert_eq!(out.scanned, 10);
        assert_eq!(out.updated, 10);
        assert_eq!(out.relocated, 0, "same-width rewrite stays in place");
        assert_eq!(out.index_entries_updated, 10, "val index re-keyed only");
        // Object 3's val was 21; now 1021, findable through the index.
        assert_eq!(idx_val.lookup(store.stack_mut(), 1021), vec![rids[3]]);
        assert!(idx_val.lookup(store.stack_mut(), 21).is_empty());
        // The key index kept its entries (key unchanged, no relocation).
        assert_eq!(idx_key.lookup(store.stack_mut(), 3), vec![rids[3]]);
    }

    #[test]
    fn zero_delta_touch_rewrites_without_index_work() {
        let (mut store, _rids, mut idx_key, mut idx_val) = setup(40);
        let out = {
            let scan = idx_key.clone();
            let mut reg = [
                MaintainedIndex {
                    index: &mut idx_key,
                    key_attr: KEY,
                },
                MaintainedIndex {
                    index: &mut idx_val,
                    key_attr: VAL,
                },
            ];
            run_update(&mut store, &scan, &mut reg, &spec(10, 0), None)
        };
        assert_eq!(out.updated, 10);
        assert_eq!(out.index_entries_updated, 0);
        assert!(store.stack().dirty_pages() > 0, "records were rewritten");
    }

    #[test]
    fn trace_rows_sum_exactly_to_the_statement_window() {
        let (mut store, _rids, mut idx_key, mut idx_val) = setup(60);
        let before = OpCounters::snapshot(&store);
        let out = {
            let scan = idx_key.clone();
            let mut reg = [
                MaintainedIndex {
                    index: &mut idx_key,
                    key_attr: KEY,
                },
                MaintainedIndex {
                    index: &mut idx_val,
                    key_attr: VAL,
                },
            ];
            run_update(&mut store, &scan, &mut reg, &spec(30, 5), None)
        };
        let after = OpCounters::snapshot(&store);
        assert_eq!(out.trace.total(), after.delta_since(&before));
        assert!(out.trace.find(OpKind::Other).is_none(), "all attributed");
        let scan_row = out.trace.find(OpKind::IndexRangeScan).unwrap();
        let upd_row = out.trace.find(OpKind::Update).unwrap();
        assert!(scan_row.counters.elapsed_nanos() > 0);
        assert!(upd_row.counters.handle_gets() >= 60, "fetch + header read");
        assert!(
            upd_row.counters.io.pages_written == 0,
            "writes defer to commit"
        );
    }

    #[test]
    fn deadline_cancellation_unwinds_mid_update() {
        let (mut store, _rids, mut idx_key, mut idx_val) = setup(60);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let scan = idx_key.clone();
            let mut reg = [
                MaintainedIndex {
                    index: &mut idx_key,
                    key_attr: KEY,
                },
                MaintainedIndex {
                    index: &mut idx_val,
                    key_attr: VAL,
                },
            ];
            run_update(
                &mut store,
                &scan,
                &mut reg,
                &spec(60, 9),
                Some(CancelToken::with_deadline_nanos(1)),
            )
        }));
        let payload = result.expect_err("1 ns of budget must cancel");
        assert!(payload.downcast_ref::<crate::exec::Cancelled>().is_some());
    }
}
