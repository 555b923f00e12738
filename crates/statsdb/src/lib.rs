//! # tq-statsdb — a database for benchmark results
//!
//! The paper's §3.3 hard-won advice: *"Large Benchmark Equals Many
//! Numbers: Why Not Use a Database?"* — after months of grepping loose
//! result files, the authors stored every experiment as an object of
//! the Figure 3 schema and queried it back. This crate is that schema,
//! reproduced: [`Stat`] / [`QueryDesc`] / [`ExtentDesc`] / [`SystemDesc`]
//! records, an in-process [`StatsDb`] with a predicate/filter query
//! API, and the "automatic translation tools" the authors built —
//! CSV and gnuplot exporters ([`export`]).
//!
//! Every figure-regeneration binary in `tq-bench` inserts its runs here
//! and *queries them back* to print its table, exactly as the authors
//! worked.

pub mod db;
pub mod export;
pub mod latency;
pub mod merge;
pub mod model;

pub use db::{Filter, StatsDb};
pub use export::to_operator_csv;
pub use latency::{parse_latency_csv, to_latency_csv, LatencyStat, LogHistogram};
pub use merge::merge_stats;
pub use model::{ExtentDesc, OperatorStat, QueryDesc, Stat, SystemDesc};
