//! §4.1 and §4.4: handle-management experiments.
//!
//! * §4.1 — "Hash table: Rids or Handles?": the same CHJ join with the
//!   operator table keyed on 8-byte rids vs. full 60-byte handles.
//! * §4.4 — "On Improving the Management of Objects in Memory": the
//!   paper *proposes* smaller literal handles and bulk allocation but
//!   never measured them; this ablation does, by re-running Figure 7
//!   and a Figure 11 cell under
//!   [`CostModel::sparc20_improved_handles`].

use crate::harness::build_db;
use crate::harness::run_cells;
use tq_pagestore::CostModel;
use tq_query::join::JoinOptions;
use tq_query::spec::{CmpOp, ResultMode, Selection};
use tq_query::{seq_scan, sorted_index_scan, HashKeyMode, JoinAlgo};
use tq_server::measure::run_join_cell;
use tq_workload::{patient_attr, DbShape, Organization};

/// §4.1 measurement.
#[derive(Clone, Debug)]
pub struct RidVsHandle {
    /// CHJ with rid keys: seconds, table MB.
    pub rid: (f64, f64),
    /// CHJ with handle keys: seconds, table MB.
    pub handle: (f64, f64),
    /// Scale divisor used.
    pub scale: u32,
}

/// Runs the §4.1 experiment on the 1:1000 database at (90, 90), the
/// two key modes as two worker jobs.
pub fn run_rid_vs_handle(scale: u32, jobs: usize) -> RidVsHandle {
    let master = build_db(DbShape::Db1, Organization::ClassClustered, scale);
    let cells: Vec<_> = [HashKeyMode::Rid, HashKeyMode::Handle]
        .iter()
        .map(|&mode| {
            let master = &master;
            move || {
                let mut db = master.clone();
                let opts = JoinOptions {
                    hash_key: mode,
                    ..JoinOptions::default()
                };
                let cell = run_join_cell(&mut db, JoinAlgo::Chj, 90, 90, &opts);
                (cell.secs, cell.report.hash_table_bytes as f64 / 1e6)
            }
        })
        .collect();
    let measured = run_cells(cells, jobs);
    RidVsHandle {
        rid: measured[0],
        handle: measured[1],
        scale,
    }
}

/// Prints the §4.1 comparison.
pub fn print_rid_vs_handle(r: &RidVsHandle) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Section 4.1: Hash table — Rids or Handles? (CHJ, 1:1000, 90/90)"
    )
    .unwrap();
    writeln!(out, "  (scale 1/{})", r.scale).unwrap();
    writeln!(out, "  key kind   elapsed        table size").unwrap();
    writeln!(out, "  Rids      {:>9.2}s  {:>11.2} MB", r.rid.0, r.rid.1).unwrap();
    writeln!(
        out,
        "  Handles   {:>9.2}s  {:>11.2} MB",
        r.handle.0, r.handle.1
    )
    .unwrap();
    writeln!(
        out,
        "  handles cost {:.2}x the rid table (the paper's conclusion: hash rids)",
        r.handle.0 / r.rid.0
    )
    .unwrap();
    out
}

/// §4.4 ablation: one workload under the legacy and the improved
/// handle regimes.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Workload label.
    pub label: &'static str,
    /// Seconds under the measured (legacy) O2 handle costs.
    pub legacy_secs: f64,
    /// Seconds with §4.4's improvements (small literal handles, bulk
    /// allocation).
    pub improved_secs: f64,
}

/// The §4.4 ablation results.
pub struct HandleAblation {
    /// One row per workload.
    pub rows: Vec<AblationRow>,
    /// Scale divisor used.
    pub scale: u32,
}

/// Runs the ablation: the legacy and improved handle regimes as two
/// worker jobs over clones of one master database.
pub fn run_ablation(scale: u32, jobs: usize) -> HandleAblation {
    let master = build_db(DbShape::Db1, Organization::ClassClustered, scale);
    let regimes: Vec<_> = [false, true]
        .iter()
        .map(|&improved| {
            let master = &master;
            move || {
                let mut db = master.clone();
                if improved {
                    db.store
                        .stack_mut()
                        .set_model(CostModel::sparc20_improved_handles());
                }
                // Workload 1: the Figure 7 no-index scan at 90%
                // (handle-bound).
                let sel = Selection {
                    collection: "Patients".into(),
                    attr: patient_attr::NUM,
                    cmp: CmpOp::Lt,
                    key: db.num_selectivity_key(90),
                    residual: vec![],
                    project: patient_attr::AGE,
                    result_mode: ResultMode::Persistent,
                };
                let (_, scan_secs) = db.measure_cold(|db| seq_scan(&mut db.store, &sel, false));
                // Workload 2: the sorted index scan at 90%.
                let num_idx = db.idx_patient_num.clone();
                let (_, sorted_secs) =
                    db.measure_cold(|db| sorted_index_scan(&mut db.store, &num_idx, &sel, false));
                // Workload 3: the Figure 11 (90,90) NOJOIN
                // (navigation-heavy).
                let cell =
                    run_join_cell(&mut db, JoinAlgo::Nojoin, 90, 90, &JoinOptions::default());
                [
                    ("Fig 7 no-index scan, 90% selectivity", scan_secs),
                    ("Fig 7 sorted index scan, 90% selectivity", sorted_secs),
                    ("Fig 11 NOJOIN (90,90)", cell.secs),
                ]
            }
        })
        .collect();
    let measured = run_cells(regimes, jobs);
    let [legacy, improved] = measured.as_slice() else {
        unreachable!("two regimes");
    };
    let rows = legacy
        .iter()
        .zip(improved.iter())
        .map(|(&(label, legacy_secs), &(_, improved_secs))| AblationRow {
            label,
            legacy_secs,
            improved_secs,
        })
        .collect();
    HandleAblation { rows, scale }
}

/// Prints the ablation.
pub fn print_ablation(a: &HandleAblation) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Section 4.4 ablation: legacy handles vs proposed improvements \
         (small literal handles + bulk allocation)"
    )
    .unwrap();
    writeln!(out, "  (scale 1/{})", a.scale).unwrap();
    writeln!(
        out,
        "  workload                                       legacy     improved   speedup"
    )
    .unwrap();
    for r in &a.rows {
        writeln!(
            out,
            "  {:<44} {:>8.2}s  {:>9.2}s  {:>7.2}x",
            r.label,
            r.legacy_secs,
            r.improved_secs,
            r.legacy_secs / r.improved_secs,
        )
        .unwrap();
    }
    out
}
