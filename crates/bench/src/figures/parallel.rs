//! Intra-query scaling: one join, morsel-parallel at degrees 1/2/4.
//!
//! Every §5.1 join algorithm runs cold at each degree. A cell reports
//! the *host* cost (CPU milliseconds across all threads, and wall
//! milliseconds), each the minimum of `ROUNDS` interleaved rounds so
//! ambient noise lands evenly, next to the *simulated* cost (summed
//! worker clocks: simulated work, not critical path) and the result
//! count, which must agree across degrees (`parallel_equivalence.rs`
//! pins the full invariant set). On a one-core host there is no wall
//! clock to win, so expect degree 4 to cost *more* CPU than degree 1;
//! the header prints the host's cores so a reader can tell physics
//! from a regression.

use std::fmt::Write;
use std::time::Instant;

use tq_query::join::JoinOptions;
use tq_query::JoinAlgo;
use tq_server::measure::run_join_cell_parallel;
use tq_workload::{DbShape, Organization};

use crate::harness::build_db;

const DEGREES: [usize; 3] = [1, 2, 4];
const ALGOS: [JoinAlgo; 4] = [JoinAlgo::Nl, JoinAlgo::Nojoin, JoinAlgo::Phj, JoinAlgo::Chj];
const ROUNDS: usize = 3;
const PAT_PCT: u32 = 10;
const PROV_PCT: u32 = 90;

/// One (algo, degree) cell: host minimums and the simulated outcome.
#[derive(Clone, Copy)]
struct Cell {
    cpu_ms: u64,
    wall_ms: u64,
    sim_secs: f64,
    results: u64,
}

/// The measured grid, `cells[algo][degree]`.
pub struct ParallelFigure {
    scale: u32,
    cells: Vec<Vec<Cell>>,
}

/// Measures every cell `ROUNDS` times, interleaved, keeping the host
/// minimums.
pub fn run(scale: u32) -> ParallelFigure {
    let mut db = build_db(DbShape::Db2, Organization::ClassClustered, scale);
    let opts = JoinOptions::default();
    let unmeasured = Cell {
        cpu_ms: u64::MAX,
        wall_ms: u64::MAX,
        sim_secs: 0.0,
        results: 0,
    };
    let mut cells = vec![vec![unmeasured; DEGREES.len()]; ALGOS.len()];
    for _ in 0..ROUNDS {
        for (row, algo) in cells.iter_mut().zip(ALGOS) {
            for (slot, degree) in row.iter_mut().zip(DEGREES) {
                let cpu0 = process_cpu_ms().unwrap_or(0);
                let wall0 = Instant::now();
                let cell =
                    run_join_cell_parallel(&mut db, algo, PAT_PCT, PROV_PCT, &opts, None, degree)
                        .expect("no injected panics in a measurement run");
                slot.wall_ms = slot.wall_ms.min(wall0.elapsed().as_millis() as u64);
                slot.cpu_ms = slot.cpu_ms.min(process_cpu_ms().unwrap_or(0) - cpu0);
                slot.sim_secs = cell.secs;
                slot.results = cell.results;
            }
        }
    }
    ParallelFigure { scale, cells }
}

/// The scaling table, with each degree's CPU speedup over degree 1.
pub fn print(fig: &ParallelFigure) -> String {
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut out = String::new();
    writeln!(
        out,
        "intra-query scaling (db2/class, {PAT_PCT}/{PROV_PCT}, scale 1/{}, \
         host cores {host_cores}, min of {ROUNDS} interleaved rounds)",
        fig.scale
    )
    .unwrap();
    writeln!(out, "algo    degree  cpu_ms  wall_ms  sim_secs  results").unwrap();
    for (row, algo) in fig.cells.iter().zip(ALGOS) {
        let l = algo.label();
        for (c, degree) in row.iter().zip(DEGREES) {
            let (cpu, wall, sim, n) = (c.cpu_ms, c.wall_ms, c.sim_secs, c.results);
            let line = format!("{cpu:>6}  {wall:>7}  {sim:>8.3}  {n:>7}");
            writeln!(out, "{l:<7} {degree:>6}  {line}").unwrap();
        }
        for (c, degree) in row.iter().zip(DEGREES).skip(1) {
            if c.cpu_ms > 0 {
                let speedup = row[0].cpu_ms as f64 / c.cpu_ms as f64;
                writeln!(out, "  {l} cpu speedup at degree {degree}: {speedup:.2}x").unwrap();
            }
        }
    }
    out
}

/// CPU time (user + system) this process has consumed so far, in
/// milliseconds: on a shared host wall clock measures the neighbours.
/// Linux-only (`/proc/self/stat` utime+stime in 10 ms ticks); `None`
/// elsewhere.
fn process_cpu_ms() -> Option<u64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Field 2 (comm) may contain spaces; fields after the closing
    // paren are whitespace-split, with utime and stime at (0-indexed)
    // positions 11 and 12.
    let after = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1000 / 100)
}
