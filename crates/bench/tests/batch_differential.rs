//! Batching is an execution detail, not a cost-model change: this
//! differential property test runs a seeded query matrix once per
//! batch size (scalar `1`, an awkward odd `7`, and the default
//! `1024`) and asserts the captured `Stat` records, per-operator
//! trace rows, and raw counters are **byte-identical** — for every
//! join algorithm × physical organization, the hybrid-hashing spill
//! path, sort-merge, all three selection scans, and the update path.
//!
//! The capture is a `Debug`-formatted string per cell, so "identical"
//! means every field, every row, every bit of the simulated clock —
//! not a tolerance. The batch-1 capture is also checked against
//! `golden/batch_differential.fp`, rendered from the last commit that
//! still carried separate one-object-at-a-time loop bodies (8267b58),
//! so the matrix is pinned to a fixed answer and not only to itself.

mod golden;

use tq_bench::build_db;
use tq_query::exec::DEFAULT_BATCH_SIZE;
use tq_query::join::{smj, JoinContext, JoinOptions};
use tq_query::spec::{CmpOp, ResultMode, Selection};
use tq_query::{index_scan, seq_scan, sorted_index_scan, JoinAlgo};
use tq_server::measure::{join_spec, operator_rows, run_join_cell, stat_record};
use tq_server::measure::{measure_update_current, update_stat_record};
use tq_server::UpdateTarget;
use tq_simrng::SimRng;
use tq_workload::{patient_attr, Database, DbShape, Organization};

const PCTS: [u32; 4] = [10, 30, 60, 90];

fn draw_pct(rng: &mut SimRng) -> u32 {
    PCTS[rng.below(PCTS.len() as u64) as usize]
}

fn selection(db: &Database, pct: u32, residual: bool) -> Selection {
    Selection {
        collection: "Patients".into(),
        attr: patient_attr::NUM,
        cmp: CmpOp::Lt,
        residual: if residual {
            vec![tq_query::AttrPredicate {
                attr: patient_attr::AGE,
                cmp: CmpOp::Ge,
                key: 0,
            }]
        } else {
            vec![]
        },
        key: db.num_selectivity_key(pct),
        project: patient_attr::AGE,
        result_mode: ResultMode::Persistent,
    }
}

/// A database whose queries run at `batch`.
fn build_at(shape: DbShape, org: Organization, scale: u32, batch: usize) -> Database {
    let mut db = build_db(shape, org, scale);
    db.store.set_batch_size(batch);
    db
}

/// Runs the whole matrix at `batch` and returns one `Debug`-rendered
/// fingerprint per cell. The `SimRng` seed is fixed, so every batch
/// size sees the *same* queries.
fn run_matrix(batch: usize) -> Vec<(String, String)> {
    let mut rng = SimRng::seed_from_u64(0x0b5e55ed);
    let mut out = Vec::new();

    for (shape, scale) in [(DbShape::Db1, 200), (DbShape::Db2, 1000)] {
        for org in [
            Organization::ClassClustered,
            Organization::Randomized,
            Organization::Composition,
        ] {
            let master = build_at(shape, org, scale, batch);
            for algo in JoinAlgo::all() {
                let (pat, prov) = (draw_pct(&mut rng), draw_pct(&mut rng));
                let mut db = master.clone();
                let cell = run_join_cell(&mut db, algo, pat, prov, &JoinOptions::default());
                out.push((
                    format!("{shape:?}/{org:?}/{} ({pat},{prov})", algo.label()),
                    format!(
                        "{:?} {:?} {:?} {:?} {:?}",
                        cell.secs.to_bits(),
                        cell.results,
                        cell.io,
                        stat_record(&db, &cell, pat, prov),
                        operator_rows(&cell.report.trace),
                    ),
                ));
            }
        }
    }

    // The hybrid-hashing spill path, at the selectivities that drive
    // the hash tables past the operator budget.
    let master = build_at(DbShape::Db2, Organization::ClassClustered, 1000, batch);
    for algo in [JoinAlgo::Phj, JoinAlgo::Chj] {
        let mut db = master.clone();
        let opts = JoinOptions {
            hybrid_hashing: true,
            ..Default::default()
        };
        let cell = run_join_cell(&mut db, algo, 90, 90, &opts);
        out.push((
            format!("hybrid/{}", algo.label()),
            format!(
                "{:?} {:?} {:?} {:?}",
                cell.secs.to_bits(),
                cell.results,
                cell.io,
                operator_rows(&cell.report.trace),
            ),
        ));
    }

    // Sort-merge is not dispatched by `run_join`; measure it directly.
    {
        let mut db = master.clone();
        let spec = join_spec(&db, 90, 90);
        let parent_index = db.idx_provider_upin.clone();
        let child_index = db.idx_patient_mrn.clone();
        db.store.cold_restart();
        db.store.reset_metrics();
        let report = {
            let mut ctx = JoinContext {
                store: &mut db.store,
                parent_index: &parent_index,
                child_index: &child_index,
            };
            smj::run(&mut ctx, &spec, &JoinOptions::default(), false)
        };
        out.push((
            "smj".into(),
            format!(
                "{:?} {:?} {:?} {:?}",
                report.results,
                db.store.stats(),
                db.store.clock().elapsed_secs().to_bits(),
                operator_rows(&report.trace),
            ),
        ));
    }

    // All three selection scans (with and without a residual).
    {
        let mut db = build_at(DbShape::Db1, Organization::ClassClustered, 200, batch);
        let num_idx = db.idx_patient_num.clone();
        let capture = |name: &str,
                       residual: bool,
                       db: &mut Database,
                       report: tq_query::SelectReport,
                       secs: f64| {
            (
                format!("{name} residual={residual}"),
                format!("{:?} {:?} {:?}", report, db.store.stats(), secs.to_bits()),
            )
        };
        for residual in [false, true] {
            let sel = selection(&db, draw_pct(&mut rng), residual);
            let (r, s) = db.measure_cold(|db| seq_scan(&mut db.store, &sel, true));
            out.push(capture("seq_scan", residual, &mut db, r, s));
            let (r, s) = db.measure_cold(|db| index_scan(&mut db.store, &num_idx, &sel, true));
            out.push(capture("index_scan", residual, &mut db, r, s));
            let (r, s) =
                db.measure_cold(|db| sorted_index_scan(&mut db.store, &num_idx, &sel, true));
            out.push(capture("sorted_index_scan", residual, &mut db, r, s));
        }
    }

    // The update path: a re-keying update and a touch-update.
    for (target, sel, delta) in [
        (UpdateTarget::Patients, 10, 5),
        (UpdateTarget::Providers, 50, 0),
    ] {
        let mut db = master.clone();
        let cell = measure_update_current(&mut db, target, sel, delta, None);
        out.push((
            format!("update/{target:?} sel={sel} delta={delta}"),
            format!(
                "{:?} {:?} {:?} {:?} {:?} {:?}",
                cell.outcome.updated,
                cell.outcome.scanned,
                cell.io,
                cell.secs.to_bits(),
                update_stat_record(&db, &cell, sel, delta, true),
                operator_rows(&cell.outcome.trace),
            ),
        ));
    }

    out
}

#[test]
fn batched_and_scalar_paths_are_byte_identical() {
    let scalar = run_matrix(1);
    // 24 join cells + 2 hybrid + smj + 6 selections + 2 updates.
    assert_eq!(scalar.len(), 35, "the matrix must actually cover cells");
    golden::assert_matches("batch_differential.fp", &scalar);
    for batch in [7, DEFAULT_BATCH_SIZE] {
        let batched = run_matrix(batch);
        assert_eq!(scalar.len(), batched.len());
        for ((name_s, fp_s), (name_b, fp_b)) in scalar.iter().zip(&batched) {
            assert_eq!(name_s, name_b, "matrix order must be deterministic");
            assert_eq!(
                fp_s, fp_b,
                "{name_s}: batch {batch} must be byte-identical to scalar"
            );
        }
    }
}
