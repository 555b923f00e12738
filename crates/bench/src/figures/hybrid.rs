//! Extension: hybrid hashing — the paper's named-but-untested fix.
//!
//! Re-runs the swap-bound cells of Figures 12 and 14 with
//! `JoinOptions::hybrid_hashing` and shows that partitioning removes
//! the paging collapse: the 90/90 inversion where "NOJOIN ... becomes
//! comparable to the hash join algorithms only when these require too
//! much memory" disappears once the hash joins stop requiring too much
//! memory.

use crate::harness::build_db;
use crate::harness::run_cells;
use tq_query::{JoinAlgo, JoinOptions};
use tq_server::measure::run_join_cell;
use tq_workload::{DbShape, Organization};

/// One cell, measured three ways.
#[derive(Clone, Debug)]
pub struct Row {
    /// Shape/organization/selectivity identification.
    pub label: String,
    /// Algorithm measured.
    pub algo: JoinAlgo,
    /// Plain (paper) variant: seconds, swap faults.
    pub plain: (f64, u64),
    /// Hybrid variant: seconds, partitions, spill pages.
    pub hybrid: (f64, u32, u64),
    /// The navigation baseline that used to win the cell (best of
    /// NL/NOJOIN), for context.
    pub best_navigation_secs: f64,
}

/// The regenerated extension experiment.
pub struct HybridFigure {
    /// One row per swap-bound cell.
    pub rows: Vec<Row>,
    /// Scale divisor used.
    pub scale: u32,
}

/// Runs the experiment on the paper's swap-bound cells, one worker
/// job per cell.
pub fn run(scale: u32, jobs: usize) -> HybridFigure {
    let cells: [(DbShape, Organization, u32, u32, JoinAlgo); 3] = [
        // Figure 12 (90,90): PHJ and CHJ both swap; NOJOIN wins.
        (
            DbShape::Db2,
            Organization::ClassClustered,
            90,
            90,
            JoinAlgo::Phj,
        ),
        (
            DbShape::Db2,
            Organization::ClassClustered,
            90,
            90,
            JoinAlgo::Chj,
        ),
        // Figure 14 (10,90): PHJ swaps; NOJOIN wins.
        (
            DbShape::Db2,
            Organization::Composition,
            10,
            90,
            JoinAlgo::Phj,
        ),
    ];
    // One master per distinct (shape, org), built up front in cell
    // order (each job clones the master it needs).
    let mut masters: Vec<((DbShape, Organization), tq_workload::Database)> = Vec::new();
    for (shape, org, ..) in cells {
        if !masters.iter().any(|(k, _)| *k == (shape, org)) {
            masters.push(((shape, org), build_db(shape, org, scale)));
        }
    }
    let cell_jobs: Vec<_> = cells
        .into_iter()
        .map(|(shape, org, pat, prov, algo)| {
            let master = &masters
                .iter()
                .find(|(k, _)| *k == (shape, org))
                .expect("master built above")
                .1;
            move || {
                let mut db = master.clone();
                let plain = run_join_cell(&mut db, algo, pat, prov, &JoinOptions::default());
                let hybrid_opts = JoinOptions {
                    hybrid_hashing: true,
                    ..JoinOptions::default()
                };
                let hybrid = run_join_cell(&mut db, algo, pat, prov, &hybrid_opts);
                assert_eq!(
                    plain.results, hybrid.results,
                    "hybrid must not change answers"
                );
                let nl = run_join_cell(&mut db, JoinAlgo::Nl, pat, prov, &JoinOptions::default());
                let nojoin = run_join_cell(
                    &mut db,
                    JoinAlgo::Nojoin,
                    pat,
                    prov,
                    &JoinOptions::default(),
                );
                Row {
                    label: format!("{} / {} ({pat},{prov})", shape.label(), org.label()),
                    algo,
                    plain: (plain.secs, plain.report.swap_faults),
                    hybrid: (
                        hybrid.secs,
                        hybrid.report.partitions,
                        hybrid.report.spill_pages,
                    ),
                    best_navigation_secs: nl.secs.min(nojoin.secs),
                }
            }
        })
        .collect();
    let rows = run_cells(cell_jobs, jobs);
    for r in &rows {
        eprintln!(
            "  {:?} plain {:.1}s ({} faults) -> hybrid {:.1}s ({} parts, {} spill pages)",
            r.algo, r.plain.0, r.plain.1, r.hybrid.0, r.hybrid.1, r.hybrid.2
        );
    }
    HybridFigure { rows, scale }
}

/// Prints the comparison.
pub fn print(fig: &HybridFigure) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Extension: hybrid hashing on the paper's swap-bound cells (scale 1/{})",
        fig.scale.max(1)
    )
    .unwrap();
    writeln!(
        out,
        "  cell                                            algo   plain(s)  faults    hybrid(s)  parts  spill-pages  best-nav(s)"
    )
    .unwrap();
    for r in &fig.rows {
        writeln!(
            out,
            "  {:<46} {:<5} {:>9.1}  {:>7}  {:>9.1}  {:>5}  {:>11}  {:>10.1}",
            r.label,
            r.algo.label(),
            r.plain.0,
            r.plain.1,
            r.hybrid.0,
            r.hybrid.1,
            r.hybrid.2,
            r.best_navigation_secs,
        )
        .unwrap();
    }
    let all_beat_nav = fig.rows.iter().all(|r| r.hybrid.0 < r.best_navigation_secs);
    writeln!(
        out,
        "  with hybrid hashing the hash joins {} navigation in these cells — \
         the paper's conjecture, confirmed",
        if all_beat_nav {
            "reclaim every cell from"
        } else {
            "close most of the gap to"
        }
    )
    .unwrap();
    out
}
