//! Index maintenance on object updates — why O2 carries index
//! membership in every object header.
//!
//! The paper's §4.4 motivating scenario: "Suppose that we have a
//! collection containing all patients living in Paris, indexed by
//! their primary care provider attribute. Now, suppose that one
//! doctor retires and that we want to assign 'nil' to all his/her
//! patients (some of whom live in Paris). How will the system know
//! which index to update unless each patient carries that
//! information?"
//!
//! [`update_with_indexes`] is that mechanism: it reads the object's
//! header index list, re-keys exactly the listed indexes (charging
//! their page I/O and CPU through the shared stack), performs the
//! update — and when the record relocates, fixes every listed index's
//! rid too. Indexes *not* in the header are never touched, however
//! many exist in the system: the per-object information is what makes
//! maintenance O(own indexes) instead of O(all indexes).

use tq_index::BTreeIndex;
use tq_objstore::{AttrId, ObjectStore, Rid, Value};
use tq_pagestore::CpuEvent;

/// One maintainable index: the tree plus the attribute it keys on.
pub struct MaintainedIndex<'a> {
    /// The B+-tree (its `id` must match what object headers record).
    pub index: &'a mut BTreeIndex,
    /// The indexed attribute.
    pub key_attr: AttrId,
}

/// Report of one maintained update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// The object's rid after the update (differs when relocated).
    pub rid: Rid,
    /// Indexes whose entries were re-keyed or re-addressed.
    pub indexes_updated: u32,
    /// Indexes present in the registry but skipped because the object's
    /// header does not list them.
    pub indexes_skipped: u32,
    /// Did the update relocate the record?
    pub relocated: bool,
}

/// Updates the object at `rid` to `new_values`, maintaining every
/// registered index the object's header lists.
///
/// Panics if a listed index's entry is missing (the header and the
/// tree disagree — an engine invariant, not a data condition).
pub fn update_with_indexes(
    store: &mut ObjectStore,
    indexes: &mut [MaintainedIndex<'_>],
    rid: Rid,
    new_values: &[Value],
) -> MaintenanceReport {
    // Pin the old object: we need its header's index list and the old
    // key values.
    let (old_rid, old_keys, skipped) = store.with_fetched(rid, |store, old| {
        let old_rid = old.rid();
        let mut old_keys: Vec<(usize, i64)> = Vec::new(); // (registry slot, old key)
        let mut skipped = 0u32;
        for (slot, m) in indexes.iter().enumerate() {
            if old.in_index(m.index.id) {
                store.charge_attr_access(old.class(), m.key_attr);
                let key = old.int(m.key_attr).expect("indexed attributes are Int") as i64;
                old_keys.push((slot, key));
            } else {
                skipped += 1;
            }
        }
        (old_rid, old_keys, skipped)
    });

    // The update itself (may relocate).
    let new_rid = store.update(old_rid, new_values);
    let relocated = new_rid != old_rid;

    // Re-key / re-address the listed indexes.
    let mut updated = 0u32;
    for (slot, old_key) in old_keys {
        let m = &mut indexes[slot];
        let new_key = new_values[m.key_attr]
            .as_int()
            .expect("indexed attributes are Int") as i64;
        if new_key != old_key || relocated {
            store.charge(CpuEvent::HashProbe, 1); // locate the entry
            let ok = m
                .index
                .reinsert(store.stack_mut(), old_key, old_rid, new_key, new_rid);
            assert!(
                ok,
                "index {} lists the object but has no entry ({old_key} @ {old_rid:?})",
                m.index.id
            );
            updated += 1;
        }
    }
    MaintenanceReport {
        rid: new_rid,
        indexes_updated: updated,
        indexes_skipped: skipped,
        relocated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tq_objstore::{AttrType, ClassId, Schema};
    use tq_pagestore::{CacheConfig, CostModel, StorageStack};

    const KEY_A: usize = 0;
    const KEY_B: usize = 1;

    /// A store with one class `Item { a: Int, b: Int }`, `n` objects,
    /// an index on `a` over everyone, and an index on `b` over the even
    /// `a`s only (the "Paris patients" sub-collection).
    fn setup(n: i64) -> (ObjectStore, Vec<Rid>, BTreeIndex, BTreeIndex) {
        let mut schema = Schema::new();
        let item = schema.add_class("Item", vec![("a", AttrType::Int), ("b", AttrType::Int)]);
        let stack = StorageStack::new(CostModel::free(), CacheConfig::default());
        let mut store = ObjectStore::new(schema, stack);
        let file = store.create_file("items");
        let rids: Vec<Rid> = (0..n)
            .map(|i| {
                store.insert(
                    file,
                    item,
                    &[Value::Int(i as i32), Value::Int((i * 10) as i32)],
                    true,
                )
            })
            .collect();
        store.create_collection("Items", item, &rids);
        let evens: Vec<Rid> = rids.iter().copied().step_by(2).collect();
        store.create_collection("EvenItems", item, &evens);
        let a_entries: Vec<(i64, Rid)> = rids
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as i64, r))
            .collect();
        let idx_a = BTreeIndex::bulk_build(store.stack_mut(), 1, "idx.a", true, &a_entries);
        let b_entries: Vec<(i64, Rid)> = evens
            .iter()
            .enumerate()
            .map(|(i, &r)| ((i as i64) * 20, r))
            .collect();
        let idx_b = BTreeIndex::bulk_build(store.stack_mut(), 2, "idx.b", false, &b_entries);
        store.register_index_on_collection("Items", 1);
        store.register_index_on_collection("EvenItems", 2);
        let _ = (item, ClassId(0));
        (store, rids, idx_a, idx_b)
    }

    #[test]
    fn header_listed_indexes_are_maintained_others_skipped() {
        let (mut store, rids, mut idx_a, mut idx_b) = setup(20);
        // Item 3 (odd) is indexed by `a` only.
        let report = {
            let mut reg = [
                MaintainedIndex {
                    index: &mut idx_a,
                    key_attr: KEY_A,
                },
                MaintainedIndex {
                    index: &mut idx_b,
                    key_attr: KEY_B,
                },
            ];
            update_with_indexes(
                &mut store,
                &mut reg,
                rids[3],
                &[Value::Int(103), Value::Int(9999)],
            )
        };
        assert_eq!(report.indexes_updated, 1);
        assert_eq!(report.indexes_skipped, 1, "idx.b is not in item 3's header");
        assert!(!report.relocated);
        assert_eq!(idx_a.lookup(store.stack_mut(), 103), vec![rids[3]]);
        assert!(idx_a.lookup(store.stack_mut(), 3).is_empty());
        // idx.b untouched.
        assert_eq!(idx_b.entry_count(), 10);
    }

    #[test]
    fn even_items_maintain_both_indexes() {
        let (mut store, rids, mut idx_a, mut idx_b) = setup(20);
        // Item 4 (even): listed in both; its b key is 2*20 = 40.
        let report = {
            let mut reg = [
                MaintainedIndex {
                    index: &mut idx_a,
                    key_attr: KEY_A,
                },
                MaintainedIndex {
                    index: &mut idx_b,
                    key_attr: KEY_B,
                },
            ];
            update_with_indexes(
                &mut store,
                &mut reg,
                rids[4],
                &[Value::Int(204), Value::Int(777)],
            )
        };
        assert_eq!(report.indexes_updated, 2);
        assert_eq!(report.indexes_skipped, 0);
        assert_eq!(idx_a.lookup(store.stack_mut(), 204), vec![rids[4]]);
        assert_eq!(idx_b.lookup(store.stack_mut(), 777), vec![rids[4]]);
        assert!(idx_b.lookup(store.stack_mut(), 40).is_empty());
    }

    #[test]
    fn unchanged_keys_skip_index_work() {
        let (mut store, rids, mut idx_a, mut idx_b) = setup(20);
        let report = {
            let mut reg = [
                MaintainedIndex {
                    index: &mut idx_a,
                    key_attr: KEY_A,
                },
                MaintainedIndex {
                    index: &mut idx_b,
                    key_attr: KEY_B,
                },
            ];
            // Same keys, different nothing: no index work needed.
            update_with_indexes(
                &mut store,
                &mut reg,
                rids[6],
                &[Value::Int(6), Value::Int(60)],
            )
        };
        assert_eq!(report.indexes_updated, 0);
        assert!(!report.relocated);
    }

    #[test]
    fn relocation_fixes_index_rids() {
        let mut schema = Schema::new();
        let item = schema.add_class("Item", vec![("a", AttrType::Int), ("pad", AttrType::Str)]);
        let stack = StorageStack::new(CostModel::free(), CacheConfig::default());
        let mut store = ObjectStore::new(schema, stack);
        let file = store.create_file("items");
        // Fill a page tightly so growth relocates.
        let rids: Vec<Rid> = (0..80)
            .map(|i| {
                store.insert(
                    file,
                    item,
                    &[Value::Int(i), Value::Str("x".repeat(40))],
                    true,
                )
            })
            .collect();
        store.create_collection("Items", item, &rids);
        let entries: Vec<(i64, Rid)> = rids
            .iter()
            .enumerate()
            .map(|(i, &r)| (i as i64, r))
            .collect();
        let mut idx = BTreeIndex::bulk_build(store.stack_mut(), 1, "idx.a", true, &entries);
        store.register_index_on_collection("Items", 1);
        let report = {
            let mut reg = [MaintainedIndex {
                index: &mut idx,
                key_attr: 0,
            }];
            update_with_indexes(
                &mut store,
                &mut reg,
                rids[0],
                &[Value::Int(0), Value::Str("y".repeat(3000))],
            )
        };
        assert!(report.relocated, "a 3000-byte pad must not fit in place");
        assert_eq!(report.indexes_updated, 1, "same key, new address");
        // The index now points at the new location; a lookup-and-fetch
        // round trip works without a forwarder hop.
        let found = idx.lookup(store.stack_mut(), 0);
        assert_eq!(found, vec![report.rid]);
        let fetched_rid = store.with_fetched(found[0], |_store, g| g.rid());
        assert_eq!(fetched_rid, report.rid);
    }
}
