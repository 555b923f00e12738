//! Every physical plan of the depth-3 and depth-4 chains, frozen: the
//! full `ChainReport` (projected rows in frontier order, results,
//! per-step `scanned`, `hash_table_bytes`, `swap_faults`, the operator
//! trace) of each plan `enumerate_plans` yields, over `fig_multiway`'s
//! three selectivity cells. `benchmark/expected/fig_chains.fp` pins
//! only the estimator's pick; this pins the plans it passes over too,
//! so the executor's host-side layout can change under a fixed answer.
//! Every plan also runs without collecting, the path production
//! callers take, and must report and measure the same but for the
//! rows.

mod golden;

use tq_index::BTreeIndex;
use tq_query::plan::enumerate_plans;
use tq_query::{run_chain, ChainFacts};
use tq_server::measure::compile_chain_spec;
use tq_workload::{build, patient_attr, provider_attr, BuildConfig, DbShape, Organization};

#[test]
fn every_chain_plan_matches_the_frozen_fingerprints() {
    // Scale 1000 keeps the debug build quick; a 16 KiB operator budget
    // (256 entries) makes the larger hash stages swap, so the table
    // sizes are pinned through `swap_faults` as well.
    let mut config = BuildConfig::scaled(DbShape::Db2, Organization::ClassClustered, 1000);
    config.cost_model.operator_memory_budget = 16 << 10;
    let mut db = build(&config);
    let (derby, upin, mrn, num) = (
        db.derby.clone(),
        db.idx_provider_upin.clone(),
        db.idx_patient_mrn.clone(),
        db.idx_patient_num.clone(),
    );
    let index_of = |class, attr| {
        if class == derby.provider && attr == provider_attr::UPIN {
            Some(upin.clone())
        } else if class == derby.patient && attr == patient_attr::MRN {
            Some(mrn.clone())
        } else if class == derby.patient && attr == patient_attr::NUM {
            Some(num.clone())
        } else {
            None
        }
    };
    let mut cells = Vec::new();
    for depth in [3, 4] {
        for (pat, prov) in [(10, 90), (90, 10), (50, 50)] {
            let spec = compile_chain_spec(&db, depth, pat, prov).expect("served depth");
            let indexes: Vec<Option<BTreeIndex>> = spec
                .steps
                .iter()
                .map(|s| {
                    let class = db.store.collection(&s.collection).class;
                    s.preds.first().and_then(|p| index_of(class, p.attr))
                })
                .collect();
            let facts = ChainFacts::derive(&db.store, &spec, |class, attr| {
                index_of(class, attr).map(|i| i.clustered)
            });
            for plan in enumerate_plans(&spec, &facts.has_index()) {
                let name = format!("d{depth} ({pat}, {prov}) {}", plan.describe(&spec));
                let (mut report, secs) = db.measure_cold(|db| {
                    run_chain(&mut db.store, &spec, &plan, &indexes, true, None)
                });
                cells.push((name.clone(), format!("{report:?}")));
                let window = (secs, db.store.stats());
                // The count-only path every production caller runs, on
                // a clone of its own: the same report but for the rows,
                // and the same measured window.
                let mut counted = db.clone();
                let (count, count_secs) = counted.measure_cold(|db| {
                    run_chain(&mut db.store, &spec, &plan, &indexes, false, None)
                });
                report.rows = None;
                assert_eq!(format!("{count:?}"), format!("{report:?}"), "{name}");
                assert_eq!((count_secs, counted.store.stats()), window, "{name}");
            }
        }
    }
    golden::assert_matches("chain_plans.fp", &cells);
}
