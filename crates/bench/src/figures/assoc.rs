//! Extension: the §5.3 association-ordered organization.
//!
//! The paper proposes (after Carey & Lapis) storing patients and
//! doctors "separately, but according to the way they are associated
//! to each other", and predicts: "simple selections and hash-joins
//! would perform as in the class clustering case while the performance
//! of NOJOIN and NL algorithms would remain the same [as composition
//! clustering]". This experiment builds that organization and checks
//! the prediction.

use crate::harness::build_db;
use crate::harness::run_cells;
use tq_query::spec::{CmpOp, ResultMode, Selection};
use tq_query::{seq_scan, JoinAlgo, JoinOptions};
use tq_server::measure::run_join_cell;
use tq_workload::{patient_attr, Database, DbShape, Organization};

/// Seconds for the reference workloads under one organization.
#[derive(Clone, Copy, Debug)]
pub struct OrgRow {
    /// Simple selection: full scan of Patients at 50% selectivity.
    pub selection_secs: f64,
    /// PHJ at (10, 10).
    pub phj_secs: f64,
    /// NL at (10, 10).
    pub nl_secs: f64,
    /// NOJOIN at (10, 10).
    pub nojoin_secs: f64,
}

/// The three-way comparison.
pub struct AssocFigure {
    /// Class clustering.
    pub class: OrgRow,
    /// Composition clustering.
    pub composition: OrgRow,
    /// Association-ordered class files.
    pub assoc: OrgRow,
    /// Scale divisor used.
    pub scale: u32,
}

/// The four workloads measured under every organization.
fn measurements(master: &Database, jobs: usize) -> OrgRow {
    let sel = Selection {
        collection: "Patients".into(),
        attr: patient_attr::MRN,
        cmp: CmpOp::Lt,
        residual: vec![],
        key: master.patient_selectivity_key(50),
        project: patient_attr::AGE,
        result_mode: ResultMode::Transient,
    };
    let cells: Vec<Box<dyn FnOnce() -> f64 + Send + '_>> = vec![
        Box::new(|| {
            let mut db = master.clone();
            db.measure_cold(|db| seq_scan(&mut db.store, &sel, false)).1
        }),
        Box::new(|| {
            let mut db = master.clone();
            run_join_cell(&mut db, JoinAlgo::Phj, 10, 10, &JoinOptions::default()).secs
        }),
        Box::new(|| {
            let mut db = master.clone();
            run_join_cell(&mut db, JoinAlgo::Nl, 10, 10, &JoinOptions::default()).secs
        }),
        Box::new(|| {
            let mut db = master.clone();
            run_join_cell(&mut db, JoinAlgo::Nojoin, 10, 10, &JoinOptions::default()).secs
        }),
    ];
    let secs = run_cells(cells, jobs);
    OrgRow {
        selection_secs: secs[0],
        phj_secs: secs[1],
        nl_secs: secs[2],
        nojoin_secs: secs[3],
    }
}

/// Runs the comparison on the 1:3 database.
pub fn run(scale: u32, jobs: usize) -> AssocFigure {
    let class = build_db(DbShape::Db2, Organization::ClassClustered, scale);
    let comp = build_db(DbShape::Db2, Organization::Composition, scale);
    let assoc = build_db(DbShape::Db2, Organization::AssociationOrdered, scale);
    AssocFigure {
        class: measurements(&class, jobs),
        composition: measurements(&comp, jobs),
        assoc: measurements(&assoc, jobs),
        scale,
    }
}

/// Prints the comparison against the paper's prediction.
pub fn print(fig: &AssocFigure) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Extension (paper §5.3): association-ordered class files, 1:3 database (scale 1/{})",
        fig.scale.max(1)
    )
    .unwrap();
    writeln!(
        out,
        "  workload            class        composition  assoc-ordered   paper's prediction for assoc-ordered"
    )
    .unwrap();
    let rows = [
        (
            "Patients scan 50%",
            fig.class.selection_secs,
            fig.composition.selection_secs,
            fig.assoc.selection_secs,
            "like class",
        ),
        (
            "PHJ (10,10)",
            fig.class.phj_secs,
            fig.composition.phj_secs,
            fig.assoc.phj_secs,
            "like class",
        ),
        (
            "NL (10,10)",
            fig.class.nl_secs,
            fig.composition.nl_secs,
            fig.assoc.nl_secs,
            "like composition",
        ),
        (
            "NOJOIN (10,10)",
            fig.class.nojoin_secs,
            fig.composition.nojoin_secs,
            fig.assoc.nojoin_secs,
            "like composition",
        ),
    ];
    for (label, c, m, a, prediction) in rows {
        writeln!(
            out,
            "  {label:<18} {c:>9.1}s  {m:>11.1}s  {a:>12.1}s   {prediction}"
        )
        .unwrap();
    }
    out
}
