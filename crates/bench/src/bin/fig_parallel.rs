//! Intra-query scaling: one join, morsel-parallel at degrees 1/2/4.
//!
//! Runs every §5.1 join algorithm cold at each degree and reports, per
//! cell, the *host* cost (CPU milliseconds — user+system across all
//! threads — and wall milliseconds) next to the *simulated* cost
//! (total simulated seconds, which sums worker clocks and therefore
//! measures simulated work, not critical path). Each (algo, degree)
//! cell is measured `ROUNDS` times with the rounds interleaved —
//! degree 4 never runs back-to-back with itself, so ambient host noise
//! lands evenly — and the minimum is kept, the classic
//! noise-suppressing protocol for shared CI hosts.
//!
//! Result counts are printed per cell and must agree across degrees
//! (the differential oracle in `parallel_equivalence.rs` pins the full
//! invariant set); simulated seconds grow slightly with degree on the
//! hash joins (duplicated table-page touches), which is honest — the
//! win parallelism buys is wall-clock via more cores, and on a
//! single-core host (`host_cores: 1`) there is none to buy: expect
//! degree 4 to cost *more* CPU than degree 1 (thread setup, store
//! clones) with flat wall clock. The header line prints the host's
//! core count so a reader can tell a physics-limited run from a
//! regression.

use std::time::Instant;

use tq_bench::env;
use tq_bench::harness::run_join_cell_parallel;
use tq_query::join::JoinOptions;
use tq_query::JoinAlgo;
use tq_workload::{DbShape, Organization};

const DEGREES: [usize; 3] = [1, 2, 4];
const ALGOS: [JoinAlgo; 4] = [JoinAlgo::Nl, JoinAlgo::Nojoin, JoinAlgo::Phj, JoinAlgo::Chj];
const ROUNDS: usize = 3;
const PAT_PCT: u32 = 10;
const PROV_PCT: u32 = 90;

#[derive(Clone, Copy, Default)]
struct Cell {
    cpu_ms: u64,
    wall_ms: u64,
    sim_secs: f64,
    results: u64,
}

fn main() {
    env::maybe_print_help(
        "Intra-query scaling: every join algorithm, morsel-parallel at \
         degrees 1/2/4, reporting host CPU + wall time (min of 3 \
         interleaved rounds) against simulated cost.",
        "fig_parallel",
        &[env::ENV_SCALE, env::ENV_BATCH, env::ENV_PARALLEL],
    );
    let (scale, _jobs) = tq_bench::env_config_or_exit();
    let mut db = tq_bench::build_db(DbShape::Db2, Organization::ClassClustered, scale);
    let opts = JoinOptions::default();

    let mut cells: Vec<Vec<Cell>> = vec![vec![Cell::default(); DEGREES.len()]; ALGOS.len()];
    for round in 0..ROUNDS {
        for (ai, &algo) in ALGOS.iter().enumerate() {
            for (di, &degree) in DEGREES.iter().enumerate() {
                let cpu0 = tq_bench::process_cpu_ms().unwrap_or(0);
                let wall0 = Instant::now();
                let cell =
                    run_join_cell_parallel(&mut db, algo, PAT_PCT, PROV_PCT, &opts, None, degree)
                        .expect("no injected panics in a measurement run");
                let wall_ms = wall0.elapsed().as_millis() as u64;
                let cpu_ms = tq_bench::process_cpu_ms().unwrap_or(0) - cpu0;
                let slot = &mut cells[ai][di];
                if round == 0 || cpu_ms < slot.cpu_ms {
                    slot.cpu_ms = cpu_ms;
                }
                if round == 0 || wall_ms < slot.wall_ms {
                    slot.wall_ms = wall_ms;
                }
                slot.sim_secs = cell.secs;
                slot.results = cell.results;
            }
        }
    }

    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "intra-query scaling (db2/class, {PAT_PCT}/{PROV_PCT}, scale 1/{scale}, \
         host cores {host_cores}, min of {ROUNDS} interleaved rounds)"
    );
    println!("algo    degree  cpu_ms  wall_ms  sim_secs  results");
    for (ai, &algo) in ALGOS.iter().enumerate() {
        for (di, &degree) in DEGREES.iter().enumerate() {
            let c = &cells[ai][di];
            println!(
                "{:<7} {:>6}  {:>6}  {:>7}  {:>8.3}  {:>7}",
                algo.label(),
                degree,
                c.cpu_ms,
                c.wall_ms,
                c.sim_secs,
                c.results
            );
        }
        let base = &cells[ai][0];
        for (di, &degree) in DEGREES.iter().enumerate().skip(1) {
            let c = &cells[ai][di];
            if c.cpu_ms > 0 {
                println!(
                    "  {} cpu speedup at degree {}: {:.2}x",
                    algo.label(),
                    degree,
                    base.cpu_ms as f64 / c.cpu_ms as f64
                );
            }
        }
    }
}
