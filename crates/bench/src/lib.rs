//! # tq-bench — figure and table regeneration
//!
//! One module per table/figure of the paper's evaluation, run by the
//! `tq-fig <name>` binary over the [`figures::FIGURES`] registry; see
//! `DESIGN.md` for the experiment index. Each figure
//! runs the real engine under the paper's measurement protocol (cold
//! caches, Figure 3 counters), stores every run in a
//! [`StatsDb`](tq_statsdb::StatsDb), and prints its table by *querying
//! the stats database* — the §3.3 methodology, practiced.
//!
//! Set `TQ_SCALE=n` to divide object counts (and cache sizes, keeping
//! ratios) by `n`; the default is paper scale.

pub mod analysis;
pub mod env;
pub mod figures;
pub mod harness;
pub mod paper;
pub mod parallel;
pub mod serve;

pub use harness::{build_db, physical_profile};
pub use serve::{run_serve, ServeConfig};

/// Reads `TQ_SCALE`, `TQ_JOBS`, `TQ_BATCH`, and `TQ_PARALLEL`, exiting
/// 2 on a bad value. The batch size and the morsel-parallel degree are
/// installed process-wide ([`tq_query::exec::set_default_batch_size`],
/// [`tq_query::exec::set_default_parallel_degree`]).
pub fn env_config_or_exit() -> (u32, usize) {
    let var = |name| std::env::var(name).ok();
    let scale = or_exit(env::scale(var("TQ_SCALE").as_deref()));
    let jobs = or_exit(env::jobs(var("TQ_JOBS").as_deref()));
    tq_query::exec::set_default_batch_size(or_exit(env::batch(var("TQ_BATCH").as_deref())));
    tq_query::exec::set_default_parallel_degree(or_exit(env::parallel(
        var("TQ_PARALLEL").as_deref(),
    )));
    (scale, jobs)
}

/// The value, or the error on stderr and exit status 2 — how the
/// binaries report a bad argument or knob.
pub fn or_exit<T>(r: Result<T, String>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}
