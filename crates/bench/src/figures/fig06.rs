//! Figure 6: selection I/O — unclustered index scan vs. full scan.
//!
//! The paper's §4.2 experiment: select patients on the random key
//! `num` at selectivities from 0.1% to 90%, with and without the
//! (unclustered) index, and count page reads. The hard truth: "the
//! unclustered index increases the number of pages that have to be
//! read once we reach a threshold selectivity situated between 1 and
//! 5%" — objects are accessed truly randomly, so pages are read more
//! than once.

use crate::harness::build_db;
use crate::harness::run_cells;
use tq_query::spec::{CmpOp, ResultMode, Selection};
use tq_query::{index_scan, seq_scan, ExecTrace};
use tq_server::measure::operator_rows;
use tq_statsdb::{ExtentDesc, QueryDesc, Stat, StatsDb, SystemDesc};
use tq_workload::{patient_attr, Database, DbShape, Organization};

/// Selectivities measured, in tenths of a percent (so 1 = 0.1%).
pub const SELECTIVITIES_PERMILLE: [u32; 7] = [1, 10, 50, 100, 300, 600, 900];

/// One measured row.
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Selectivity in tenths of a percent.
    pub permille: u32,
    /// Physical pages read by the unclustered index scan.
    pub index_pages: u64,
    /// Simulated seconds for the index scan.
    pub index_secs: f64,
    /// Physical pages read by the full scan.
    pub scan_pages: u64,
    /// Simulated seconds for the full scan.
    pub scan_secs: f64,
    /// Rows selected.
    pub selected: u64,
}

/// The regenerated figure.
pub struct Fig06 {
    /// Measured rows, by ascending selectivity.
    pub rows: Vec<Row>,
    /// Scale divisor used.
    pub scale: u32,
    /// All runs as Figure 3 records.
    pub stats: StatsDb,
}

fn selection(db: &Database, permille: u32) -> Selection {
    Selection {
        collection: "Patients".into(),
        attr: patient_attr::NUM,
        cmp: CmpOp::Lt,
        residual: vec![],
        key: db.patient_count as i64 * permille as i64 / 1000,
        project: patient_attr::AGE,
        result_mode: ResultMode::Persistent,
    }
}

fn stat(db: &Database, algo: &str, permille: u32, secs: f64, trace: &ExecTrace) -> Stat {
    Stat {
        numtest: 0,
        query: QueryDesc {
            cold: true,
            projection_type: "pa.age".into(),
            // Selectivity is recorded in tenths of a percent here: the
            // Figure 6 sweep goes below 1%.
            selectivities: vec![("Patient(permille)".into(), permille)],
            text: format!("select pa.age from pa in Patients where pa.num < k ({permille}/1000)"),
        },
        database: vec![ExtentDesc {
            classname: "Provider".into(),
            size: db.provider_count,
            associations: vec![("Patient".into(), db.config.shape.mean_fanout())],
        }],
        cluster: db.config.organization.label().into(),
        algo: algo.into(),
        system: SystemDesc::paper_default(),
        cc_pagefaults: db.store.stats().client_misses,
        cc_lookups: db.store.stats().client_hits + db.store.stats().client_misses,
        elapsed_time: secs,
        rpcs_number: db.store.stats().sc2cc_read_pages,
        rpcs_total_mb: db.store.stats().rpc_total_bytes() as f64 / 1e6,
        d2sc_read_pages: db.store.stats().d2sc_read_pages,
        sc2cc_read_pages: db.store.stats().sc2cc_read_pages,
        cc_miss_rate: db.store.stats().client_miss_rate(),
        sc_miss_rate: db.store.stats().server_miss_rate(),
        operators: operator_rows(trace),
    }
}

/// Runs the figure, one worker job per selectivity.
pub fn run(scale: u32, jobs: usize) -> Fig06 {
    let master = build_db(DbShape::Db1, Organization::ClassClustered, scale);
    let mut rows = Vec::new();
    let mut stats = StatsDb::new();
    let cells: Vec<_> = SELECTIVITIES_PERMILLE
        .iter()
        .map(|&permille| {
            let master = &master;
            move || {
                let mut db = master.clone();
                let sel = selection(&db, permille);
                let num_idx = db.idx_patient_num.clone();
                let (report_idx, index_secs) =
                    db.measure_cold(|db| index_scan(&mut db.store, &num_idx, &sel, false));
                let index_pages = db.store.stats().d2sc_read_pages;
                let index_stat = stat(&db, "IndexScan", permille, index_secs, &report_idx.trace);
                let (report_seq, scan_secs) =
                    db.measure_cold(|db| seq_scan(&mut db.store, &sel, false));
                let scan_pages = db.store.stats().d2sc_read_pages;
                let scan_stat = stat(&db, "SeqScan", permille, scan_secs, &report_seq.trace);
                assert_eq!(report_idx.selected, report_seq.selected);
                let row = Row {
                    permille,
                    index_pages,
                    index_secs,
                    scan_pages,
                    scan_secs,
                    selected: report_idx.selected,
                };
                (row, index_stat, scan_stat)
            }
        })
        .collect();
    for (row, index_stat, scan_stat) in run_cells(cells, jobs) {
        stats.insert(index_stat);
        stats.insert(scan_stat);
        eprintln!(
            "  {:>5}‰  index {:>8} pages {:>10.2}s   scan {:>8} pages {:>10.2}s",
            row.permille, row.index_pages, row.index_secs, row.scan_pages, row.scan_secs
        );
        rows.push(row);
    }
    Fig06 { rows, scale, stats }
}

/// The measured crossover: the lowest selectivity (in ‰) at which the
/// index scan reads more pages than the full scan.
pub fn crossover_permille(fig: &Fig06) -> Option<u32> {
    fig.rows
        .iter()
        .find(|r| r.index_pages > r.scan_pages)
        .map(|r| r.permille)
}

/// Prints the table.
pub fn print(fig: &Fig06) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(
        out,
        "Figure 6: selection on Patients.num — unclustered index vs no index"
    )
    .unwrap();
    if fig.scale > 1 {
        writeln!(out, "  (scale 1/{})", fig.scale).unwrap();
    }
    writeln!(
        out,
        "  selectivity   selected    index pages   index secs    scan pages    scan secs"
    )
    .unwrap();
    for r in &fig.rows {
        writeln!(
            out,
            "  {:>9.1}%  {:>9}  {:>12}  {:>10.2}  {:>12}  {:>10.2}",
            r.permille as f64 / 10.0,
            r.selected,
            r.index_pages,
            r.index_secs,
            r.scan_pages,
            r.scan_secs,
        )
        .unwrap();
    }
    match crossover_permille(fig) {
        Some(p) => writeln!(
            out,
            "  crossover: index reads more pages than the scan from {:.1}% selectivity \
             (paper: between 1% and 5%)",
            p as f64 / 10.0
        )
        .unwrap(),
        None => writeln!(out, "  no crossover observed").unwrap(),
    }
    out
}
