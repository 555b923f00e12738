//! # tq-query — queries over trees
//!
//! The core of the `treequery` reproduction of *Benchmarking Queries
//! over Trees* (SIGMOD 2000): the query algorithms whose behaviour the
//! paper measures, an analytic cost estimator, a heuristic and a
//! cost-based planner (the thing the authors set out to build), and a
//! small OQL front end for the query fragment the paper exercises.
//!
//! * [`exec`] — the physical-operator execution layer: every access
//!   pattern (scans, navigations, hash build/probe, …) is a named
//!   operator driven through an [`exec::ExecContext`] that enforces
//!   RAII handle pairing and attributes counter deltas per operator.
//! * [`select`] — sequential scan, index scan, and the Figure 8
//!   *sorted* index scan over a single collection.
//! * [`join`] — NL, NOJOIN, PHJ and CHJ over a 1-N tree (§5.1),
//!   including the Figure 10 hash-table sizing and the swap behaviour
//!   that inverts Figure 12's 90/90 cell.
//! * [`swap`] — the operator-memory paging simulation.
//! * [`plan`] — the logical plan IR for N-way binding chains, with
//!   connected-order and physical-plan enumeration.
//! * [`estimator`] / [`planner`] — analytic costs and plan choice,
//!   including the three chain-ordering policies (estimator-driven,
//!   Simpli-Squared size-only, syntactic).
//! * [`maintenance`] — header-driven index maintenance on updates
//!   (the §4.4 retiring-doctor scenario).
//! * [`update`] — the range-predicated update statement the concurrent
//!   service's mixed workloads run (scan + rewrite + index re-key,
//!   fully operator-attributed).
//! * [`oql`] — `select … from … where …` parsing and compilation.

pub mod engine;
pub mod estimator;
pub mod exec;
pub mod explain;
pub mod join;
pub mod maintenance;
pub mod oql;
pub mod plan;
pub mod planner;
pub mod select;
pub mod spec;
pub mod swap;
pub mod update;

pub use engine::{Engine, EngineError, QueryOutcome};
pub use estimator::{ChainFacts, EstimateBreakdown, OpEstimate};
pub use exec::{
    CancelReason, CancelToken, Cancelled, ExecContext, ExecTrace, OpCounters, OpKind, OpRecord,
};
pub use explain::{render_chain_plan, render_estimate, render_trace};
pub use join::parallel::{fan_out, run_join_parallel, MorselPanic, ParallelRun};
pub use join::{
    hash_table_bytes, run_chain, run_join, run_join_with, ChainReport, JoinContext, JoinOptions,
    JoinReport,
};
pub use plan::{chain_pipeline, ChainSpec, LogicalPlan, RootAccess, StepAlgo};
pub use planner::{plan_chain, ChainChoice, PlannerPolicy};
pub use select::{index_scan, seq_scan, sorted_index_scan, SelectReport};
pub use spec::{AttrPredicate, CmpOp, HashKeyMode, JoinAlgo, ResultMode, Selection, TreeJoinSpec};
pub use swap::SwapSim;
pub use update::{run_update, UpdateOutcome, UpdateSpec};

#[cfg(test)]
mod thread_safety {
    use super::*;

    /// Compile-time proof that a whole engine (store + indexes +
    /// planner) can move to a worker thread.
    #[test]
    fn engine_is_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Engine>();
        assert_sync::<Engine>();
        assert_send::<JoinReport>();
        assert_send::<SelectReport>();
    }

    /// The morsel machinery's contracts: the token is shared across
    /// worker threads, the typed panic crosses the join boundary, and
    /// a completed run moves back to the coordinator.
    #[test]
    fn parallel_types_are_send_and_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<CancelToken>();
        assert_sync::<CancelToken>();
        assert_send::<MorselPanic>();
        assert_sync::<MorselPanic>();
        assert_send::<ParallelRun>();
    }
}
