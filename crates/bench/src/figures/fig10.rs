//! Figure 10: hash-table size approximations, formula vs. measurement.

use crate::harness::build_db;
use crate::harness::run_cells;
use crate::paper::FIG10_HASH_SIZES;
use tq_query::{hash_table_bytes, JoinAlgo};
use tq_server::measure::run_join_cell;
use tq_workload::{DbShape, Organization};

/// One row: the paper's approximation, our formula, and (when run) the
/// executor's actual table size.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Algorithm.
    pub algo: JoinAlgo,
    /// Providers in the (full-scale) database.
    pub providers: u64,
    /// Mean fan-out.
    pub fanout: u32,
    /// Selectivity on patients, percent.
    pub pat: u32,
    /// Selectivity on providers, percent.
    pub prov: u32,
    /// The paper's MB.
    pub paper_mb: f64,
    /// Our closed-form MB at full scale.
    pub formula_mb: f64,
    /// Executor-measured MB (at the run scale), if measured.
    pub measured_mb: Option<f64>,
    /// Swap faults the run incurred, if measured.
    pub swap_faults: Option<u64>,
}

/// The regenerated figure.
pub struct Fig10 {
    /// All eight rows.
    pub rows: Vec<Row>,
    /// Scale divisor used for the measured columns (0 = not measured).
    pub scale: u32,
}

/// Runs the figure, one worker job per row. With `measure` set,
/// actually executes the joins (at `scale`, each on its own clone of
/// the master database) and reports the executor's table sizes too.
pub fn run(scale: u32, measure: bool, jobs: usize) -> Fig10 {
    let db1 = measure.then(|| build_db(DbShape::Db1, Organization::ClassClustered, scale));
    let db2 = measure.then(|| build_db(DbShape::Db2, Organization::ClassClustered, scale));
    let cells: Vec<_> = FIG10_HASH_SIZES
        .into_iter()
        .map(|(algo, providers, fanout, pat, prov, paper_mb)| {
            let db1 = db1.as_ref();
            let db2 = db2.as_ref();
            move || {
                let children = providers * fanout as u64;
                let formula_mb = hash_table_bytes(
                    algo,
                    providers,
                    providers * prov as u64 / 100,
                    children * pat as u64 / 100,
                ) as f64
                    / 1e6;
                let master = match fanout {
                    1_000 => db1,
                    3 => db2,
                    _ => None,
                };
                let (measured_mb, swap_faults) = match master {
                    Some(master) => {
                        let mut db = master.clone();
                        let cell = run_join_cell(&mut db, algo, pat, prov, &Default::default());
                        (
                            Some(cell.report.hash_table_bytes as f64 / 1e6),
                            Some(cell.report.swap_faults),
                        )
                    }
                    None => (None, None),
                };
                Row {
                    algo,
                    providers,
                    fanout,
                    pat,
                    prov,
                    paper_mb,
                    formula_mb,
                    measured_mb,
                    swap_faults,
                }
            }
        })
        .collect();
    let rows = run_cells(cells, jobs);
    Fig10 { rows, scale }
}

/// Prints the table.
pub fn print(fig: &Fig10) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "Figure 10: Approximation of the hash table sizes").unwrap();
    writeln!(
        out,
        "  algo  providers  children   sel.pat  sel.prov   paper MB   formula MB   measured MB (1/{})   swap faults",
        fig.scale.max(1)
    )
    .unwrap();
    for r in &fig.rows {
        let measured = r
            .measured_mb
            .map(|m| format!("{m:>11.4}"))
            .unwrap_or_else(|| "          -".into());
        let faults = r
            .swap_faults
            .map(|f| format!("{f:>11}"))
            .unwrap_or_else(|| "          -".into());
        writeln!(
            out,
            "  {:<5} {:>9}  1:{:<6}  {:>7}  {:>8}  {:>9.4}  {:>11.4}  {measured}  {faults}",
            r.algo.label(),
            r.providers,
            r.fanout,
            r.pat,
            r.prov,
            r.paper_mb,
            r.formula_mb,
        )
        .unwrap();
    }
    writeln!(
        out,
        "  memory budget for one operator: {} MB — tables above it swap",
        tq_pagestore::CostModel::sparc20().operator_memory_budget / (1 << 20)
    )
    .unwrap();
    out
}
