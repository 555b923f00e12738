//! Figures 11–14: the join-algorithm comparison tables.

use crate::harness::build_db;
use crate::harness::run_cells;
use crate::paper;
use tq_query::{JoinAlgo, JoinOptions};
use tq_server::measure::{run_join_cell, stat_record};
use tq_statsdb::{Filter, StatsDb};
use tq_workload::{Database, DbShape, Organization};

/// The four selectivity combinations of Figures 11–14:
/// `(patient %, provider %)`.
pub const CELLS: [(u32, u32); 4] = [(10, 10), (10, 90), (90, 10), (90, 90)];

/// One regenerated join figure.
pub struct JoinFigure {
    /// Database shape.
    pub shape: DbShape,
    /// Physical organization.
    pub org: Organization,
    /// Scale divisor used.
    pub scale: u32,
    /// Every measured run, stored the §3.3 way.
    pub stats: StatsDb,
}

impl JoinFigure {
    /// Measured ranking for one `(pat, prov)` cell, fastest first —
    /// queried back from the stats database.
    pub fn ranking(&self, pat: u32, prov: u32) -> Vec<(JoinAlgo, f64)> {
        let filter = Filter::any()
            .selectivity("Patient", pat)
            .selectivity("Provider", prov);
        self.stats
            .ranking(&filter)
            .into_iter()
            .map(|s| {
                let algo = JoinAlgo::all()
                    .into_iter()
                    .find(|a| a.label() == s.algo)
                    .expect("known algorithm");
                (algo, s.elapsed_time)
            })
            .collect()
    }

    /// The measured winner of a cell.
    pub fn winner(&self, pat: u32, prov: u32) -> (JoinAlgo, f64) {
        self.ranking(pat, prov)[0]
    }
}

/// Runs all 16 measurements of one join figure (4 algorithms × 4
/// selectivity cells) on a freshly built database, fanning the cells
/// across `jobs` workers.
pub fn run_join_figure(shape: DbShape, org: Organization, scale: u32, jobs: usize) -> JoinFigure {
    let db = build_db(shape, org, scale);
    run_join_figure_on(&db, scale, jobs)
}

/// Like [`run_join_figure`], reusing an existing database as the
/// master: every cell measures its own clone, so the master is left
/// untouched and cells are order-independent.
pub fn run_join_figure_on(db: &Database, scale: u32, jobs: usize) -> JoinFigure {
    let mut stats = StatsDb::new();
    let cells: Vec<_> = CELLS
        .iter()
        .flat_map(|&(pat, prov)| {
            JoinAlgo::all()
                .into_iter()
                .map(move |algo| (pat, prov, algo))
        })
        .map(|(pat, prov, algo)| {
            move || {
                let mut db = db.clone();
                let cell = run_join_cell(&mut db, algo, pat, prov, &JoinOptions::default());
                let stat = stat_record(&db, &cell, pat, prov);
                (pat, prov, cell, stat)
            }
        })
        .collect();
    for (pat, prov, cell, stat) in run_cells(cells, jobs) {
        stats.insert(stat);
        eprintln!(
            "  ({pat:>2},{prov:>2}) {:<6} {:>12.2}s  results={} io={} swap={}",
            cell.algo.label(),
            cell.secs,
            cell.results,
            cell.io.d2sc_read_pages,
            cell.report.swap_faults,
        );
    }
    JoinFigure {
        shape: db.config.shape,
        org: db.config.organization,
        scale,
        stats,
    }
}

/// Renders the `--explain` view: one per-operator counter table per
/// measured run, with the rows' field-wise sum and the query-level
/// `Stat` line below it — by the executor's attribution invariant the
/// two lines agree exactly. Shared by the join figures and the
/// multiway plan-quality figure.
pub fn explain_tables(stats: &StatsDb) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    for s in stats.all() {
        let pat = s.query.selectivity_on("Patient").unwrap_or(0);
        let prov = s.query.selectivity_on("Provider").unwrap_or(0);
        writeln!(
            out,
            "explain (pat {pat}, prov {prov}) {} [{}]:",
            s.algo, s.cluster
        )
        .unwrap();
        writeln!(
            out,
            "  {:<30} {:>9} {:>9} {:>9} {:>10} {:>11} {:>10}",
            "operator", "pages", "shipped", "c-miss", "h-gets", "cpu-ev", "secs"
        )
        .unwrap();
        let (mut pages, mut shipped, mut miss, mut gets, mut ev) = (0u64, 0u64, 0u64, 0u64, 0u64);
        let mut nanos = 0u64;
        for op in &s.operators {
            writeln!(
                out,
                "  {:<30} {:>9} {:>9} {:>9} {:>10} {:>11} {:>10.2}",
                format!(
                    "{:indent$}{}({})",
                    "",
                    op.op,
                    op.label,
                    indent = 2 * op.depth as usize
                ),
                op.d2sc_read_pages,
                op.sc2cc_read_pages,
                op.client_misses,
                op.handle_gets,
                op.cpu_events,
                op.elapsed_secs(),
            )
            .unwrap();
            pages += op.d2sc_read_pages;
            shipped += op.sc2cc_read_pages;
            miss += op.client_misses;
            gets += op.handle_gets;
            ev += op.cpu_events;
            nanos += op.io_nanos + op.rpc_nanos + op.cpu_nanos + op.swap_nanos;
        }
        writeln!(
            out,
            "  {:<30} {:>9} {:>9} {:>9} {:>10} {:>11} {:>10.2}",
            "sum(operators)",
            pages,
            shipped,
            miss,
            gets,
            ev,
            nanos as f64 / 1e9,
        )
        .unwrap();
        writeln!(
            out,
            "  {:<30} {:>9} {:>9} {:>9} {:>10} {:>11} {:>10.2}",
            "query Stat",
            s.d2sc_read_pages,
            s.sc2cc_read_pages,
            s.cc_pagefaults,
            "",
            "",
            s.elapsed_time,
        )
        .unwrap();
        out.push('\n');
    }
    out
}

/// Prints the figure in the paper's layout (ranked, with time ratios),
/// paper numbers alongside when published.
pub fn print_join_figure(fig: &JoinFigure) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let caption = match (fig.shape, fig.org) {
        (DbShape::Db1, Organization::ClassClustered) => {
            "Figure 11: One file per Class, 2x10^3 Providers, 2x10^6 Patients"
        }
        (DbShape::Db2, Organization::ClassClustered) => {
            "Figure 12: One file per Class, 10^6 Providers, 3x10^6 Patients"
        }
        (DbShape::Db1, Organization::Composition) => {
            "Figure 13: Composition Cluster, 2x10^3 Providers, 2x10^6 Patients"
        }
        (DbShape::Db2, Organization::Composition) => {
            "Figure 14: Composition Cluster, 10^6 Providers, 3x10^6 Patients"
        }
        (DbShape::Db1, Organization::Randomized) => {
            "Random file, 2x10^3 Providers, 2x10^6 Patients (summarized in Fig 15)"
        }
        (DbShape::Db2, Organization::Randomized) => {
            "Random file, 10^6 Providers, 3x10^6 Patients (summarized in Fig 15)"
        }
        (DbShape::Db1, Organization::AssociationOrdered) => {
            "Association-ordered class files (extension of paper §5.3), 2x10^3 Providers, 2x10^6 Patients"
        }
        (DbShape::Db2, Organization::AssociationOrdered) => {
            "Association-ordered class files (extension of paper §5.3), 10^6 Providers, 3x10^6 Patients"
        }
    };
    writeln!(out, "{caption}").unwrap();
    if fig.scale > 1 {
        writeln!(
            out,
            "  (measured at scale 1/{}; paper columns are full scale)",
            fig.scale
        )
        .unwrap();
    }
    writeln!(
        out,
        "  sel.pat  sel.prov  algo     ratio   measured(s)   paper(s)  paper-ratio"
    )
    .unwrap();
    let paper_cells = paper::join_figure(fig.shape, fig.org);
    for (pat, prov) in CELLS {
        let ranked = fig.ranking(pat, prov);
        let best = ranked[0].1;
        let paper_cell =
            paper_cells.and_then(|cells| cells.iter().find(|c| c.pat == pat && c.prov == prov));
        for (i, (algo, secs)) in ranked.iter().enumerate() {
            let paper_entry = paper_cell.map(|c| c.ranked[i]);
            let (paper_secs, paper_ratio) = match paper_cell.zip(paper_entry) {
                Some((c, _)) => {
                    // Paper value for *this* algorithm (not this rank).
                    let p = c.ranked.iter().find(|(a, _)| a == algo).unwrap().1;
                    (format!("{p:>9.2}"), format!("{:.2}", p / c.ranked[0].1))
                }
                None => ("        -".to_string(), "-".to_string()),
            };
            writeln!(
                out,
                "  {:>6}  {:>8}  {:<6} {:>6.2}  {:>12.2}  {}  {:>6}",
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
                algo.label(),
                secs / best,
                secs,
                paper_secs,
                paper_ratio,
            )
            .unwrap();
        }
    }
    out
}
