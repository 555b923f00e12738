//! Extension: warm-cache runs.
//!
//! The paper measured only cold executions ("the server was shutdown
//! at the end of each evaluation"). This experiment re-runs the
//! Figure 12 cells warm and splits what the caches absorb (I/O) from
//! what they cannot (the per-object handle CPU of §4): navigation
//! algorithms stay expensive even when every page is resident.

use crate::harness::run_cells;
use tq_query::{JoinAlgo, JoinOptions};
use tq_server::measure::{run_join_cell, run_join_cell_warm};
use tq_workload::{build, BuildConfig, DbShape, Organization};

/// One cold/warm pair.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Selectivities (patients, providers).
    pub cell: (u32, u32),
    /// Algorithm.
    pub algo: JoinAlgo,
    /// Cold seconds / disk pages.
    pub cold: (f64, u64),
    /// Warm seconds / disk pages.
    pub warm: (f64, u64),
}

/// The regenerated experiment.
pub struct WarmFigure {
    /// All rows.
    pub rows: Vec<Row>,
    /// Scale divisor used.
    pub scale: u32,
}

/// Runs cold-vs-warm on the 1:3 class-clustered database.
///
/// Uses the paper's full-size 32 MB client cache with the scaled
/// database, so warm residency is actually possible — with both scaled
/// together (the figure harness default) nothing ever stays warm and
/// the comparison is vacuous.
pub fn run(scale: u32, jobs: usize) -> WarmFigure {
    let mut cfg = BuildConfig::scaled(DbShape::Db2, Organization::ClassClustered, scale);
    cfg.cache = tq_pagestore::CacheConfig::paper_default();
    let master = build(&cfg);
    let cells: Vec<_> = [(10u32, 10u32), (90, 90)]
        .iter()
        .flat_map(|&cell| JoinAlgo::all().into_iter().map(move |algo| (cell, algo)))
        .map(|(cell, algo)| {
            let master = &master;
            move || {
                let mut db = master.clone();
                let cold = run_join_cell(&mut db, algo, cell.0, cell.1, &JoinOptions::default());
                let warm =
                    run_join_cell_warm(&mut db, algo, cell.0, cell.1, &JoinOptions::default());
                assert_eq!(cold.results, warm.results);
                Row {
                    cell,
                    algo,
                    cold: (cold.secs, cold.io.d2sc_read_pages),
                    warm: (warm.secs, warm.io.d2sc_read_pages),
                }
            }
        })
        .collect();
    let rows = run_cells(cells, jobs);
    for r in &rows {
        eprintln!(
            "  ({},{}) {:<6} cold {:>9.1}s/{:>7} pages   warm {:>9.1}s/{:>7} pages",
            r.cell.0,
            r.cell.1,
            r.algo.label(),
            r.cold.0,
            r.cold.1,
            r.warm.0,
            r.warm.1
        );
    }
    WarmFigure { rows, scale }
}

/// Prints the table.
pub fn print(fig: &WarmFigure) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Extension: cold vs warm runs, 1:3 database, class clustering (scale 1/{})",
        fig.scale.max(1)
    )
    .unwrap();
    writeln!(
        out,
        "  cell      algo     cold(s)   cold-pages    warm(s)   warm-pages   warm/cold"
    )
    .unwrap();
    for r in &fig.rows {
        writeln!(
            out,
            "  ({:>2},{:>2})  {:<6} {:>9.1}  {:>11}  {:>9.1}  {:>11}  {:>9.2}",
            r.cell.0,
            r.cell.1,
            r.algo.label(),
            r.cold.0,
            r.cold.1,
            r.warm.0,
            r.warm.1,
            r.warm.0 / r.cold.0,
        )
        .unwrap();
    }
    writeln!(
        out,
        "  caches absorb the I/O where the data fits; the handle CPU never goes away (§4)."
    )
    .unwrap();
    out
}
