//! Integration: logical deletion — flagged objects vanish from every
//! access path while their physical slots stay resolvable.

use tq_query::join::{run_join, JoinContext, JoinOptions};
use tq_query::spec::{CmpOp, ResultMode, Selection};
use tq_query::{index_scan, seq_scan, sorted_index_scan, JoinAlgo, TreeJoinSpec};
use tq_workload::{build, patient_attr, provider_attr, BuildConfig, DbShape, Organization};

fn db() -> tq_workload::Database {
    build(&BuildConfig::scaled(
        DbShape::Db2,
        Organization::ClassClustered,
        1000,
    ))
}

fn delete_every_nth_patient(db: &mut tq_workload::Database, n: usize) -> u64 {
    let mut rids = Vec::new();
    let mut c = db.store.collection_cursor("Patients");
    while let Some(rid) = c.next(db.store.stack_mut()) {
        rids.push(rid);
    }
    let victims: Vec<_> = rids.iter().copied().step_by(n).collect();
    for rid in &victims {
        db.store.mark_deleted(*rid);
    }
    victims.len() as u64
}

#[test]
fn deleted_objects_vanish_from_all_selection_paths() {
    let mut d = db();
    let sel = Selection {
        collection: "Patients".into(),
        attr: patient_attr::NUM,
        cmp: CmpOp::Lt,
        residual: vec![],
        key: d.patient_count as i64, // everything qualifies
        project: patient_attr::AGE,
        result_mode: ResultMode::Transient,
    };
    let before = seq_scan(&mut d.store, &sel, false).selected;
    assert_eq!(before, d.patient_count);
    let deleted = delete_every_nth_patient(&mut d, 5);
    let idx = d.idx_patient_num.clone();
    let a = seq_scan(&mut d.store, &sel, false);
    let b = index_scan(&mut d.store, &idx, &sel, false);
    let c = sorted_index_scan(&mut d.store, &idx, &sel, false);
    assert_eq!(a.selected, d.patient_count - deleted);
    assert_eq!(b.selected, a.selected);
    assert_eq!(c.selected, a.selected);
    // The survivors' rows still scan (slots were not reused).
    assert_eq!(a.scanned, d.patient_count);
}

#[test]
fn deleted_objects_vanish_from_all_joins_consistently() {
    let mut d = db();
    let spec = TreeJoinSpec {
        parents: "Providers".into(),
        children: "Patients".into(),
        parent_key: provider_attr::UPIN,
        parent_set: provider_attr::CLIENTS,
        child_key: patient_attr::MRN,
        child_parent: patient_attr::PCP,
        parent_project: provider_attr::NAME,
        child_project: patient_attr::AGE,
        parent_key_limit: d.provider_count as i64,
        child_key_limit: d.patient_count as i64,
        result_mode: ResultMode::Transient,
    };
    let run = |d: &mut tq_workload::Database, algo: JoinAlgo| {
        let parent_index = d.idx_provider_upin.clone();
        let child_index = d.idx_patient_mrn.clone();
        let spec = spec.clone();
        let (r, _) = d.measure_cold(move |d| {
            let mut ctx = JoinContext {
                store: &mut d.store,
                parent_index: &parent_index,
                child_index: &child_index,
            };
            run_join(algo, &mut ctx, &spec, &JoinOptions::default(), true)
        });
        let mut pairs = r.pairs.unwrap();
        pairs.sort_unstable();
        (pairs, r.children_scanned)
    };
    let (full, _) = run(&mut d, JoinAlgo::Phj);
    let deleted = delete_every_nth_patient(&mut d, 7);
    let (reference, phj_children_scanned) = run(&mut d, JoinAlgo::Phj);
    assert_eq!(reference.len() as u64, full.len() as u64 - deleted);
    for algo in [JoinAlgo::Nl, JoinAlgo::Nojoin, JoinAlgo::Chj] {
        assert_eq!(run(&mut d, algo).0, reference, "{algo:?} after deletions");
    }
    // Hybrid too.
    let parent_index = d.idx_provider_upin.clone();
    let child_index = d.idx_patient_mrn.clone();
    let spec2 = spec.clone();
    let (hy, _) = d.measure_cold(move |d| {
        let mut ctx = JoinContext {
            store: &mut d.store,
            parent_index: &parent_index,
            child_index: &child_index,
        };
        run_join(
            JoinAlgo::Phj,
            &mut ctx,
            &spec2,
            &JoinOptions {
                hybrid_hashing: true,
                ..JoinOptions::default()
            },
            true,
        )
    });
    let mut hy_pairs = hy.pairs.unwrap();
    hy_pairs.sort_unstable();
    assert_eq!(hy_pairs, reference);
    // `children_scanned` counts objects fetched, deleted ones included,
    // in every algorithm alike.
    assert_eq!(hy.children_scanned, phj_children_scanned);
}

#[test]
fn deleting_a_provider_hides_it_from_child_to_parent_navigation() {
    let mut d = db();
    // Delete provider 0; NOJOIN must drop its patients' tuples.
    let victim = {
        let mut c = d.store.collection_cursor("Providers");
        c.next(d.store.stack_mut()).unwrap()
    };
    d.store.mark_deleted(victim);
    let spec = TreeJoinSpec {
        parents: "Providers".into(),
        children: "Patients".into(),
        parent_key: provider_attr::UPIN,
        parent_set: provider_attr::CLIENTS,
        child_key: patient_attr::MRN,
        child_parent: patient_attr::PCP,
        parent_project: provider_attr::NAME,
        child_project: patient_attr::AGE,
        parent_key_limit: d.provider_count as i64,
        child_key_limit: d.patient_count as i64,
        result_mode: ResultMode::Transient,
    };
    let parent_index = d.idx_provider_upin.clone();
    let child_index = d.idx_patient_mrn.clone();
    let (nojoin, _) = d.measure_cold(|d| {
        let mut ctx = JoinContext {
            store: &mut d.store,
            parent_index: &parent_index,
            child_index: &child_index,
        };
        run_join(
            JoinAlgo::Nojoin,
            &mut ctx,
            &spec,
            &JoinOptions::default(),
            true,
        )
    });
    let pairs = nojoin.pairs.unwrap();
    assert!(
        pairs.iter().all(|&(upin, _)| upin != 0),
        "the retired provider's tuples must be gone"
    );
    assert!(!pairs.is_empty());
}
