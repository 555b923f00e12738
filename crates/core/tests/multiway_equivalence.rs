//! Integration: every enumerable physical plan for an N-way binding
//! chain — and every planner policy's pick — returns the same result
//! multiset as a naive nested-loop oracle that walks the raw
//! collections in binding order.

use tq_index::BTreeIndex;
use tq_objstore::{ClassId, Rid};
use tq_query::estimator::ChainFacts;
use tq_query::oql::{compile_str, CompiledQuery};
use tq_query::plan::{enumerate_plans, ChainStep};
use tq_query::{plan_chain, run_chain, ChainSpec, PlannerPolicy};
use tq_workload::{
    build, chain3_query_text, chain4_query_text, join_query_text, patient_attr, provider_attr,
    ref_chain_query_text, BuildConfig, Database, DbShape, Organization,
};

fn compile_chain(db: &Database, text: &str) -> ChainSpec {
    match compile_str(&db.store, text).expect("compiles") {
        CompiledQuery::Chain(spec) => spec,
        other => panic!("expected a chain, got {other:?}"),
    }
}

/// The workload's fixed index set, by (class, attribute).
fn index_lookup(db: &Database, class: ClassId, attr: usize) -> Option<&BTreeIndex> {
    if class == db.derby.provider && attr == provider_attr::UPIN {
        Some(&db.idx_provider_upin)
    } else if class == db.derby.patient && attr == patient_attr::MRN {
        Some(&db.idx_patient_mrn)
    } else if class == db.derby.patient && attr == patient_attr::NUM {
        Some(&db.idx_patient_num)
    } else {
        None
    }
}

fn indexes_for(db: &Database, spec: &ChainSpec) -> Vec<Option<BTreeIndex>> {
    spec.steps
        .iter()
        .map(|s| {
            let class = db.store.collection(&s.collection).class;
            s.preds
                .first()
                .and_then(|p| index_lookup(db, class, p.attr))
                .cloned()
        })
        .collect()
}

fn facts_for(db: &Database, spec: &ChainSpec) -> ChainFacts {
    ChainFacts::derive(&db.store, spec, |class, attr| {
        index_lookup(db, class, attr).map(|i| i.clustered)
    })
}

fn passes(db: &mut Database, rid: Rid, step: &ChainStep) -> bool {
    db.store.with_fetched(rid, |_store, o| {
        step.preds
            .iter()
            .all(|p| p.eval(o.object().values[p.attr].as_int().unwrap() as i64))
    })
}

/// Naive nested-loop evaluation in binding order: no planner, no
/// operators, just raw fetches along the traversed attributes.
fn oracle(db: &mut Database, spec: &ChainSpec) -> Vec<Vec<i64>> {
    let mut cursor = db.store.collection_cursor(&spec.steps[0].collection);
    let mut roots = Vec::new();
    while let Some(rid) = cursor.next(db.store.stack_mut()) {
        roots.push(rid);
    }
    let mut rows: Vec<Vec<Rid>> = Vec::new();
    for rid in roots {
        if passes(db, rid, &spec.steps[0]) {
            rows.push(vec![rid]);
        }
    }
    for i in 1..spec.len() {
        let edge = &spec.edges[i - 1];
        let mut next = Vec::new();
        for row in rows {
            let prev = row[i - 1];
            let candidates: Vec<Rid> = if edge.child == i {
                let attr = edge.set_attr.expect("set traversal");
                db.store.with_fetched(prev, |store, parent| {
                    let set = parent.object().values[attr].as_set().unwrap();
                    let mut members = store.set_cursor(set);
                    let mut out = Vec::new();
                    while let Some(r) = members.next(store.stack_mut()) {
                        out.push(r);
                    }
                    out
                })
            } else {
                let attr = edge.ref_attr.expect("reference traversal");
                db.store.with_fetched(prev, |_store, child| {
                    child.object().values[attr]
                        .as_ref_rid()
                        .into_iter()
                        .collect()
                })
            };
            for c in candidates {
                if passes(db, c, &spec.steps[i]) {
                    let mut nr = row.clone();
                    nr.push(c);
                    next.push(nr);
                }
            }
        }
        rows = next;
    }
    rows.into_iter()
        .map(|row| {
            spec.projection
                .iter()
                .map(|&(s, attr)| {
                    db.store.with_fetched(row[s], |_store, o| {
                        o.object().values[attr].as_int().unwrap() as i64
                    })
                })
                .collect()
        })
        .collect()
}

fn run_plan(
    db: &mut Database,
    spec: &ChainSpec,
    plan: &tq_query::LogicalPlan,
    indexes: &[Option<BTreeIndex>],
) -> Vec<Vec<i64>> {
    let (mut report, secs) =
        db.measure_cold(|db| run_chain(&mut db.store, spec, plan, indexes, true, None));
    let mut got = report.rows.take().expect("collected");
    assert_eq!(got.len() as u64, report.results);
    let window = (secs, db.store.stats());
    // The count-only path every production caller runs, on a clone of
    // its own: the same report but for the rows, and the same measured
    // window.
    let mut counted = db.clone();
    let (count, count_secs) =
        counted.measure_cold(|db| run_chain(&mut db.store, spec, plan, indexes, false, None));
    let name = plan.describe(spec);
    assert_eq!(format!("{count:?}"), format!("{report:?}"), "{name}");
    assert_eq!((count_secs, counted.store.stats()), window, "{name}");
    got.sort_unstable();
    got
}

#[test]
fn query_texts_compile_to_their_shapes() {
    let db = build(&BuildConfig::scaled(
        DbShape::Db2,
        Organization::ClassClustered,
        5_000,
    ));
    let q = compile_str(&db.store, &join_query_text(&db, 10, 50)).unwrap();
    assert!(matches!(q, CompiledQuery::TreeJoin(_)));
    assert_eq!(compile_chain(&db, &chain3_query_text(&db, 10, 50)).len(), 3);
    assert_eq!(compile_chain(&db, &chain4_query_text(&db, 10, 50)).len(), 4);
    assert_eq!(compile_chain(&db, &ref_chain_query_text(&db, 10)).len(), 2);
}

#[test]
fn every_plan_and_policy_matches_the_oracle() {
    // Db1's overflow client sets and Db2's inline ones both matter;
    // vary the organization with them.
    for (shape, scale, org) in [
        (DbShape::Db1, 500, Organization::ClassClustered),
        (DbShape::Db2, 2_000, Organization::Randomized),
    ] {
        let mut db = build(&BuildConfig::scaled(shape, org, scale));
        let texts = [
            chain3_query_text(&db, 30, 60),
            ref_chain_query_text(&db, 40),
        ];
        for text in texts {
            let spec = compile_chain(&db, &text);
            let mut want = oracle(&mut db, &spec);
            want.sort_unstable();
            assert!(!want.is_empty(), "{shape:?}: `{text}` selects nothing");
            let indexes = indexes_for(&db, &spec);
            let facts = facts_for(&db, &spec);
            let plans = enumerate_plans(&spec, &facts.has_index());
            assert!(plans.len() > 2, "{shape:?}: `{text}`");
            for plan in &plans {
                let got = run_plan(&mut db, &spec, plan, &indexes);
                assert_eq!(got, want, "{shape:?}: {}", plan.describe(&spec));
            }
            // The policies choose from the same enumeration, so their
            // picks are already verified; pin that membership.
            let model = db.store.stack().model().clone();
            for policy in PlannerPolicy::all() {
                let choice = plan_chain(policy, &spec, &facts, &model);
                assert!(
                    plans.contains(&choice.plan),
                    "{policy:?} chose an unenumerated plan: {}",
                    choice.plan.describe(&spec)
                );
            }
        }
    }
}

#[test]
fn depth4_policies_match_the_oracle() {
    let mut db = build(&BuildConfig::scaled(
        DbShape::Db2,
        Organization::ClassClustered,
        2_000,
    ));
    let spec = compile_chain(&db, &chain4_query_text(&db, 50, 50));
    let mut want = oracle(&mut db, &spec);
    want.sort_unstable();
    assert!(!want.is_empty());
    let indexes = indexes_for(&db, &spec);
    let facts = facts_for(&db, &spec);
    let model = db.store.stack().model().clone();
    for policy in PlannerPolicy::all() {
        let choice = plan_chain(policy, &spec, &facts, &model);
        let got = run_plan(&mut db, &spec, &choice.plan, &indexes);
        assert_eq!(got, want, "{policy:?}: {}", choice.plan.describe(&spec));
    }
}
