//! Plan quality for N-way binding chains: the three ordering policies
//! (estimator-driven, Simpli-Squared size-only, syntactic) measured
//! side by side on the depth-3 and depth-4 chains through the
//! Provider↔Patient reference cycle.
//!
//! The question the figure answers is the planner's reason to exist:
//! how much does join *order* (and algorithm assignment) cost when it
//! is chosen without looking at the data? Every policy returns the
//! same result multiset (pinned by `tests/multiway_equivalence.rs` in
//! `tq-query`), so the only thing that varies is time — the measured
//! `ratio` column is plan quality.

use crate::harness::build_db;
use crate::harness::run_cells;
use tq_query::{render_chain_plan, PlannerPolicy};
use tq_server::measure::{chain_stat_record, compile_chain_spec, run_chain_cell};
use tq_statsdb::StatsDb;
use tq_workload::{DbShape, Organization};

/// The selectivity cells: `(patient %, provider %)`. One cheap side,
/// one expensive side, and the symmetric middle — the cases where the
/// policies' orders actually diverge.
pub const CELLS: [(u32, u32); 3] = [(10, 90), (90, 10), (50, 50)];

/// The chain depths measured (depth 2 is served over the wire but has
/// no ordering freedom worth a figure row).
pub const DEPTHS: [u32; 2] = [3, 4];

/// One measured (depth × cell × policy) run.
#[derive(Clone, Debug)]
pub struct MultiwayRow {
    /// Binding count.
    pub depth: u32,
    /// Patient-side selectivity (percent).
    pub pat: u32,
    /// Provider-side selectivity (percent).
    pub prov: u32,
    /// The ordering policy.
    pub policy: PlannerPolicy,
    /// The chosen plan, rendered (`plan[simpli] est 3.50s: x:…`).
    pub plan: String,
    /// The policy's own cost estimate for its pick.
    pub estimated_secs: f64,
    /// Measured simulated seconds (cold run).
    pub secs: f64,
    /// Result tuples — identical across policies at the same cell.
    pub results: u64,
}

/// The regenerated figure.
pub struct MultiwayFigure {
    /// Database shape.
    pub shape: DbShape,
    /// Physical organization.
    pub org: Organization,
    /// Scale divisor used.
    pub scale: u32,
    /// Policies measured (all three, or the `--planner` selection).
    pub policies: Vec<PlannerPolicy>,
    /// Every run, in (depth, cell, policy) order.
    pub rows: Vec<MultiwayRow>,
    /// Every measured run, stored the §3.3 way.
    pub stats: StatsDb,
}

/// Runs the figure: every depth × selectivity cell × policy, each on
/// its own cold clone of the master database, fanned across `jobs`
/// workers. `policy` narrows to one ordering policy (the `--planner`
/// flag); `None` measures all three side by side.
pub fn run(
    shape: DbShape,
    org: Organization,
    scale: u32,
    jobs: usize,
    policy: Option<PlannerPolicy>,
) -> MultiwayFigure {
    let master = &build_db(shape, org, scale);
    let policies: Vec<PlannerPolicy> = match policy {
        Some(p) => vec![p],
        None => PlannerPolicy::all().to_vec(),
    };
    let mut grid = Vec::new();
    for depth in DEPTHS {
        for (pat, prov) in CELLS {
            for &policy in &policies {
                grid.push((depth, pat, prov, policy));
            }
        }
    }
    let cells: Vec<_> = grid
        .into_iter()
        .map(|(depth, pat, prov, policy)| {
            move || {
                let mut db = master.clone();
                let cell = run_chain_cell(&mut db, depth, pat, prov, policy, None)
                    .expect("figure depths are served");
                let spec =
                    compile_chain_spec(&db, depth, pat, prov).expect("compiled once already");
                let plan =
                    render_chain_plan(&spec, &cell.choice.plan, policy, cell.choice.estimated_secs);
                let stat = chain_stat_record(&db, &cell, depth, pat, prov);
                (
                    MultiwayRow {
                        depth,
                        pat,
                        prov,
                        policy,
                        plan,
                        estimated_secs: cell.choice.estimated_secs,
                        secs: cell.secs,
                        results: cell.results,
                    },
                    stat,
                )
            }
        })
        .collect();
    let mut stats = StatsDb::new();
    let mut rows = Vec::new();
    for (row, stat) in run_cells(cells, jobs) {
        stats.insert(stat);
        eprintln!(
            "  depth {} ({:>2},{:>2}) {:<9} {:>10.2}s  results={}",
            row.depth,
            row.pat,
            row.prov,
            row.policy.label(),
            row.secs,
            row.results,
        );
        rows.push(row);
    }
    MultiwayFigure {
        shape: master.config.shape,
        org: master.config.organization,
        scale,
        policies,
        rows,
        stats,
    }
}

/// Prints the plan-quality table: per (depth, cell), every policy's
/// pick with its estimate, its measured time, and the ratio to the
/// cell's best measured time (1.00 = this policy found the winner).
pub fn print(fig: &MultiwayFigure) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Plan quality: N-way chain join ordering ({:?} / {}, scale 1/{})",
        fig.shape,
        fig.org.label(),
        fig.scale.max(1)
    )
    .unwrap();
    writeln!(
        out,
        "  depth  sel.pat  sel.prov  policy     est(s)    measured(s)  ratio  results"
    )
    .unwrap();
    for depth in DEPTHS {
        for (pat, prov) in CELLS {
            let cell_rows: Vec<&MultiwayRow> = fig
                .rows
                .iter()
                .filter(|r| r.depth == depth && r.pat == pat && r.prov == prov)
                .collect();
            let Some(best) = cell_rows
                .iter()
                .map(|r| r.secs)
                .min_by(|a, b| a.total_cmp(b))
            else {
                continue;
            };
            for (i, row) in cell_rows.iter().enumerate() {
                writeln!(
                    out,
                    "  {:>5}  {:>7}  {:>8}  {:<9} {:>8.2}  {:>12.2}  {:>5.2}  results={}",
                    if i == 0 {
                        depth.to_string()
                    } else {
                        String::new()
                    },
                    if i == 0 {
                        pat.to_string()
                    } else {
                        String::new()
                    },
                    if i == 0 {
                        prov.to_string()
                    } else {
                        String::new()
                    },
                    row.policy.label(),
                    row.estimated_secs,
                    row.secs,
                    row.secs / best,
                    row.results,
                )
                .unwrap();
            }
        }
    }
    writeln!(out, "\nChosen plans:").unwrap();
    for row in &fig.rows {
        writeln!(
            out,
            "  depth {} ({:>2},{:>2}) {}",
            row.depth, row.pat, row.prov, row.plan
        )
        .unwrap();
    }
    out
}
