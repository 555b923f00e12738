//! Figure 7 (and the Figure 9 decomposition): sorted unclustered index
//! scan vs. no index.
//!
//! "Not only our indexes were still very good when their use
//! potentially augmented the number of I/Os ... but even after adding
//! the cost of sorting 1.8 millions of addresses (in the 90% case),
//! they remained good."

use crate::harness::build_db;
use crate::harness::run_cells;
use crate::paper::FIG7_SORTED_VS_NOINDEX;
use tq_query::explain::CostBreakdown;
use tq_query::spec::{CmpOp, ResultMode, Selection};
use tq_query::{seq_scan, sorted_index_scan};
use tq_workload::{patient_attr, Database, DbShape, Organization};

/// One measured row.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Selectivity in percent.
    pub pct: u32,
    /// Sorted-index-scan seconds and breakdown.
    pub sorted_secs: f64,
    /// Cost decomposition of the sorted scan.
    pub sorted_breakdown: CostBreakdown,
    /// Full-scan seconds and breakdown.
    pub scan_secs: f64,
    /// Cost decomposition of the full scan.
    pub scan_breakdown: CostBreakdown,
    /// Rids sorted by the index plan.
    pub rids_sorted: u64,
}

/// The regenerated figure.
pub struct Fig07 {
    /// Rows by ascending selectivity.
    pub rows: Vec<Row>,
    /// Scale divisor used.
    pub scale: u32,
}

fn selection(db: &Database, pct: u32) -> Selection {
    Selection {
        collection: "Patients".into(),
        attr: patient_attr::NUM,
        cmp: CmpOp::Lt,
        residual: vec![],
        key: db.num_selectivity_key(pct),
        project: patient_attr::AGE,
        result_mode: ResultMode::Persistent,
    }
}

/// Runs the figure, one worker job per selectivity.
pub fn run(scale: u32, jobs: usize) -> Fig07 {
    let master = build_db(DbShape::Db1, Organization::ClassClustered, scale);
    let cells: Vec<_> = [10u32, 30, 60, 90]
        .iter()
        .map(|&pct| {
            let master = &master;
            move || {
                let mut db = master.clone();
                let sel = selection(&db, pct);
                let num_idx = db.idx_patient_num.clone();
                let (report, sorted_secs) =
                    db.measure_cold(|db| sorted_index_scan(&mut db.store, &num_idx, &sel, false));
                let sorted_breakdown = CostBreakdown::from_clock(db.store.clock());
                let (_, scan_secs) = db.measure_cold(|db| seq_scan(&mut db.store, &sel, false));
                let scan_breakdown = CostBreakdown::from_clock(db.store.clock());
                Row {
                    pct,
                    sorted_secs,
                    sorted_breakdown,
                    scan_secs,
                    scan_breakdown,
                    rids_sorted: report.rids_sorted,
                }
            }
        })
        .collect();
    let rows = run_cells(cells, jobs);
    for r in &rows {
        eprintln!(
            "  {:>2}%  sorted {:>10.2}s   scan {:>10.2}s   ({} rids sorted)",
            r.pct, r.sorted_secs, r.scan_secs, r.rids_sorted
        );
    }
    Fig07 { rows, scale }
}

/// Prints the Figure 7 table plus the Figure 9 decomposition.
pub fn print(fig: &Fig07) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Figure 7: Comparing Sorted Unclustered Index with No Index (time in sec)"
    )
    .unwrap();
    if fig.scale > 1 {
        writeln!(
            out,
            "  (scale 1/{}; paper columns are full scale)",
            fig.scale
        )
        .unwrap();
    }
    writeln!(
        out,
        "  sel%   sorted-index    no-index     ratio   paper-sorted  paper-noindex  paper-ratio"
    )
    .unwrap();
    for r in &fig.rows {
        let paper = FIG7_SORTED_VS_NOINDEX.iter().find(|&&(p, _, _)| p == r.pct);
        let (ps, pn) = paper
            .map(|&(_, s, n)| (s, n))
            .unwrap_or((f64::NAN, f64::NAN));
        writeln!(
            out,
            "  {:>3}  {:>12.2}  {:>10.2}  {:>8.2}  {:>12.2}  {:>13.2}  {:>11.2}",
            r.pct,
            r.sorted_secs,
            r.scan_secs,
            r.sorted_secs / r.scan_secs,
            ps,
            pn,
            ps / pn,
        )
        .unwrap();
    }
    writeln!(out).unwrap();
    writeln!(out, "Figure 9: where the time goes (cost decomposition)").unwrap();
    for r in &fig.rows {
        writeln!(out, "  sel {:>2}%:", r.pct).unwrap();
        writeln!(out, "    sorted index scan: {}", r.sorted_breakdown).unwrap();
        writeln!(out, "    standard scan:     {}", r.scan_breakdown).unwrap();
        let d = r.scan_breakdown.diff(&r.sorted_breakdown);
        writeln!(out, "    scan minus sorted: {d}").unwrap();
    }
    out
}
