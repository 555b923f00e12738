//! Morsel-driven intra-query parallelism (ROADMAP: "as fast as the
//! hardware allows").
//!
//! One query, all cores: a join hands its *driving* list — the drained
//! `(key, rid)` list of its outer index scan — to the one dispatcher
//! here, [`Morsels::run`], together with the loop body to run over it.
//! At degree 1 the body runs inline, over the whole list, on the
//! query's own [`ExecContext`]: no clone, no thread, the serial charge
//! sequence. At degree > 1 the list is partitioned into **morsels**,
//! contiguous batch-aligned runs, executed by [`fan_out`] — the one
//! std-only scoped fan-out, which runs figure cells and closed-loop
//! load clients too. Each morsel worker owns:
//!
//! * a private [`ObjectStore`](tq_objstore::ObjectStore) clone —
//!   carrying the coordinator's warm cache at spawn time and evolving
//!   independently, which is exactly the per-shard private-cache
//!   discipline of the scatter-gather router, now in-process
//!   (aggregate cache capacity therefore scales with the degree;
//!   cache-hit counters are *not* topology-invariant and the
//!   differential oracle does not pin them);
//! * a private [`ExecContext`] whose finished trace the coordinator
//!   [absorbs](ExecContext::absorb) into its own node tree by
//!   `(parent, kind, label)` — the `merge_stats` arithmetic at operator
//!   granularity — so the query still ends in one serial-shaped trace;
//! * its own piece of the body's mutable state (PHJ's copy of the
//!   post-build swap simulation, CHJ's partial table), made and sized
//!   on the coordinator before the worker starts — so what the query
//!   keeps is not left in a worker thread's malloc arena — and handed
//!   back in morsel order;
//! * the query's [`CancelToken`], measured from the query's start so a
//!   deadline fires against total simulated time; a worker that
//!   unwinds with [`Cancelled`] trips the shared token so its siblings
//!   stop at their next operator boundary.
//!
//! Which list each algorithm drives with is its own business (see
//! `nl`, `nojoin`, `phj`, `chj`); nothing here names an algorithm
//! beyond the dispatch in [`run_join_parallel`].
//!
//! What is deterministic at every degree, and byte-identical to the
//! serial run: result counts and pairs (morsel-order fold), per-row
//! `handle_gets` (object fetches partition exactly), Emit rows
//! (per-pair charges are cache-independent), and the attribution
//! invariant (rows sum to the merged totals). What diverges, bounded
//! and documented: cache hit/miss splits and swap-fault counts, for
//! the same reason the sharded oracle lets them diverge — private
//! caches see different access interleaves.

use std::any::Any;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use super::hybrid::{self, BuildSide};
use super::{chj, nl, nojoin, phj, JoinContext, JoinOptions, JoinReport};
use crate::exec::{CancelToken, Cancelled, ExecContext, OpCounters};
use crate::spec::{JoinAlgo, TreeJoinSpec};
use tq_pagestore::IoStats;

/// A morsel worker panicked with a non-[`Cancelled`] payload. The
/// typed, joined alternative to a hung scope or a leaked guard: the
/// coordinator joins every worker, drops their store clones (the
/// primary store holds no pins — the coordinator's own scopes closed
/// cleanly), and surfaces the first failing worker. The session layer
/// treats it like a cancellation: discard the database clone, refill
/// the session, answer with a typed error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MorselPanic {
    /// Index of the first worker (in morsel order) that panicked.
    pub worker: usize,
    /// Its panic message, when one was attached.
    pub message: String,
}

impl std::fmt::Display for MorselPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "morsel worker {} panicked: {}",
            self.worker, self.message
        )
    }
}

impl std::error::Error for MorselPanic {}

/// A parallel join run: the merged report plus the worker-side counter
/// deltas the coordinator's own store never saw. The measurement layer
/// adds them to the coordinator's window so `Stat` totals — and the
/// trace-sums-to-total invariant — stay exact.
#[derive(Clone, Debug)]
pub struct ParallelRun {
    /// Merged report; its trace is serial-shaped (same rows, same
    /// order, counters summed across coordinator and workers).
    pub report: JoinReport,
    /// Sum of the workers' I/O counter deltas.
    pub workers_io: IoStats,
    /// Sum of the workers' simulated-clock deltas.
    pub workers_nanos: u64,
    /// Sum of the workers' end-of-query drains. Each worker's clone
    /// carries part of the query's deferred handle-frees (the zombie
    /// pool), and the paper's delayed-destruction protocol pays for
    /// them at end of query — so each worker drains its own pool
    /// inside its measured window before the clone dies, and the
    /// measurement layer folds these counters into the query's single
    /// trailing `Teardown` row. Without this, teardown cost would
    /// silently shrink with the degree.
    pub workers_teardown: OpCounters,
}

/// Partitions `n` driving items into up to `degree` contiguous,
/// batch-aligned spans. Alignment matters: worker-local
/// `chunks(batch)` boundaries then coincide with the serial loop's, so
/// batched fetch charges partition exactly instead of fragmenting at
/// span edges. Pure arithmetic — the same inputs give the same morsels
/// on every run and every host.
pub fn morsel_spans(n: usize, batch: usize, degree: usize) -> Vec<(usize, usize)> {
    if n == 0 || degree == 0 {
        return Vec::new();
    }
    let batch = batch.max(1);
    let n_batches = n.div_ceil(batch);
    let span = n_batches.div_ceil(degree) * batch;
    (0..degree)
        .map_while(|w| {
            let lo = w * span;
            (lo < n).then(|| (lo, (lo + span).min(n)))
        })
        .collect()
}

/// One worker's completed morsel.
struct Morsel<S> {
    /// Partial report (counts, pairs, trace).
    report: JoinReport,
    /// I/O counter delta on the worker's store clone.
    io: IoStats,
    /// Simulated-clock delta on the worker's store clone.
    nanos: u64,
    /// The worker's end-of-query drain (deferred handle-frees), run on
    /// its clone inside the measured window.
    teardown: OpCounters,
    /// The worker's state, as the body left it.
    state: S,
}

/// The morsel dispatcher of one query: its degree, its cancellation
/// state, and the worker-side totals the coordinator's store never saw.
pub(super) struct Morsels {
    degree: usize,
    cancel: Option<CancelToken>,
    /// The query's start on the simulated clock (deadline origin).
    t0: u64,
    workers_io: IoStats,
    workers_nanos: u64,
    workers_teardown: OpCounters,
}

impl Morsels {
    /// Contexts that will execute the query's driving lists (≥ 1).
    pub(super) fn degree(&self) -> usize {
        self.degree
    }

    /// The worker the query's token forces to panic (fault tests).
    fn failing_worker(&self) -> Option<usize> {
        self.cancel.as_ref().and_then(|t| t.fail_worker)
    }

    /// Runs `work` over the driving items `0..n`, each span with the
    /// state `state(span)` makes for it; the states come back, as the
    /// work left them, in span order.
    ///
    /// At degree 1: one span, `0..n`, run inline — `work(ex, 0..n,
    /// report, &mut state(0..n))`, `report` the caller's.
    ///
    /// At degree > 1: one [`fan_out`] job per [`morsel_spans`] span, each
    /// on a private clone of `ex`'s store with a fresh partial report
    /// and its own state, made here on the coordinator before the
    /// worker starts (no span, no state); so is the clone's handle
    /// table ([`reserve_handles`](tq_objstore::ObjectStore::reserve_handles)).
    /// Every worker is joined before returning; their counts and pairs
    /// fold into `report` and their traces into `ex` in morsel order. A
    /// worker that unwinds with [`Cancelled`] trips the shared token
    /// (stopping siblings at their next boundary) and is re-raised after
    /// the join; any other panic is captured as a typed [`MorselPanic`]
    /// (first worker in morsel order wins; a concurrent `Cancelled`
    /// loses to it — a real defect outranks a timeout).
    pub(super) fn run<S, F>(
        &mut self,
        ex: &mut ExecContext<'_>,
        n: usize,
        report: &mut JoinReport,
        mut state: impl FnMut(Range<usize>) -> S,
        work: F,
    ) -> Result<Vec<S>, MorselPanic>
    where
        S: Send,
        F: Fn(&mut ExecContext<'_>, Range<usize>, &mut JoinReport, &mut S) + Sync,
    {
        if self.degree == 1 {
            // The inline arm is "worker 0" of the fault-injection hook:
            // a plain panic here is what any engine defect looks like
            // to the session layer at degree 1.
            if self.failing_worker() == Some(0) {
                panic!("injected morsel failure (worker 0)");
            }
            let mut state = state(0..n);
            work(ex, 0..n, report, &mut state);
            return Ok(vec![state]);
        }
        let spans = morsel_spans(n, ex.batch_size(), self.degree);
        let collect = report.pairs.is_some();
        let (work, t0, fail) = (&work, self.t0, self.failing_worker());
        let jobs: Vec<_> = spans
            .iter()
            .enumerate()
            .map(|(w, &(lo, hi))| {
                let mut store = ex.store.clone();
                store.reserve_handles();
                let token = self.cancel.clone();
                let mut state = state(lo..hi);
                move || {
                    let clock0 = store.clock().elapsed();
                    let io0 = store.stats();
                    let out = catch_unwind(AssertUnwindSafe(|| {
                        if fail == Some(w) {
                            panic!("injected morsel failure (worker {w})");
                        }
                        let mut ex = ExecContext::new(&mut store);
                        if let Some(t) = token.clone() {
                            ex.set_cancel(t);
                        }
                        ex.rebase_start_nanos(t0);
                        let mut report = JoinReport {
                            pairs: collect.then(Vec::new),
                            ..Default::default()
                        };
                        work(&mut ex, lo..hi, &mut report, &mut state);
                        report.trace = ex.finish();
                        report
                    }));
                    let report = out.unwrap_or_else(|payload| {
                        if payload.downcast_ref::<Cancelled>().is_some() {
                            if let Some(t) = &token {
                                t.cancel();
                            }
                        }
                        resume_unwind(payload)
                    });
                    // Drain this worker's share of the query's deferred
                    // handle-frees before the clone dies, still inside
                    // the measured window.
                    let before = OpCounters::snapshot(&store);
                    store.end_of_query();
                    let teardown = OpCounters::snapshot(&store).delta_since(&before);
                    Morsel {
                        io: store.stats().delta_since(&io0),
                        nanos: store.clock().elapsed() - clock0,
                        report,
                        teardown,
                        state,
                    }
                }
            })
            .collect();
        let outcomes = fan_out(jobs, spans.len());

        let mut states = Vec::with_capacity(outcomes.len());
        let mut cancelled: Option<Box<dyn Any + Send>> = None;
        let mut panicked: Option<MorselPanic> = None;
        for (w, out) in outcomes.into_iter().enumerate() {
            match out {
                Ok(m) => {
                    report.results += m.report.results;
                    report.parents_scanned += m.report.parents_scanned;
                    report.children_scanned += m.report.children_scanned;
                    if let Some(pairs) = report.pairs.as_mut() {
                        pairs.extend(m.report.pairs.unwrap_or_default());
                    }
                    ex.absorb(&m.report.trace);
                    self.workers_io.accumulate(&m.io);
                    self.workers_nanos += m.nanos;
                    self.workers_teardown.add(&m.teardown);
                    states.push(m.state);
                }
                Err(payload) => {
                    if payload.downcast_ref::<Cancelled>().is_some() {
                        cancelled.get_or_insert(payload);
                    } else if panicked.is_none() {
                        panicked = Some(MorselPanic {
                            worker: w,
                            message: panic_message(payload.as_ref()),
                        });
                    }
                }
            }
        }
        if let Some(p) = panicked {
            return Err(p);
        }
        if let Some(c) = cancelled {
            // Same unwind protocol as a degree-1 run: the session layer
            // catches the payload and discards the database clone.
            resume_unwind(c);
        }
        Ok(states)
    }
}

/// Runs every job and returns each one's outcome in job order: its
/// value, or the payload of the panic it raised.
///
/// With `width <= 1`, or fewer than two jobs, the jobs run inline on
/// the calling thread. Otherwise `min(width, jobs.len())` scoped
/// threads each run their own first job (thread i job i), then take
/// jobs in order from one shared queue, and every thread is joined
/// before this returns. With no more jobs than `width`, job i therefore
/// runs alone on thread i, so what each thread does (and allocates)
/// does not depend on timing. A panicking job never stops another
/// one: each outcome is caught where its job ran, so the caller decides
/// what a panic means (figure cells re-raise it; morsel spans type it).
/// Which thread ran which job never shows in the result.
pub fn fan_out<J, T>(jobs: Vec<J>, width: usize) -> Vec<std::thread::Result<T>>
where
    J: FnOnce() -> T + Send,
    T: Send,
{
    let run = |job: J| catch_unwind(AssertUnwindSafe(job));
    if width <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(run).collect();
    }
    let mut queue = jobs.into_iter().enumerate();
    // Worker w starts with job w: with no more jobs than workers, that
    // is the only job it runs.
    let firsts: Vec<_> = queue.by_ref().take(width).collect();
    let queue = Mutex::new(queue);
    let mut outcomes: Vec<_> = std::thread::scope(|s| {
        let workers: Vec<_> = (firsts.into_iter())
            .map(|first| {
                let queue = &queue;
                s.spawn(move || {
                    let mut done = Vec::new();
                    let mut next = Some(first);
                    while let Some((i, job)) = next {
                        done.push((i, run(job)));
                        // Taken in its own statement: the lock is not
                        // held while the job runs, so nothing poisons it.
                        next = queue.lock().expect("never held by a job").next();
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("jobs' panics are caught"))
            .collect()
    });
    outcomes.sort_unstable_by_key(|&(i, _)| i);
    outcomes.into_iter().map(|(_, outcome)| outcome).collect()
}

/// Best-effort panic-payload text.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// [`run_join_with`](super::run_join_with) at an explicit morsel degree.
///
/// Every degree runs the same algorithm code; the degree only decides
/// whether [`Morsels::run`] executes a driving list inline (`degree <=
/// 1` — and always for hybrid hashing, whose partition loop is already
/// its own blocking decomposition) or on worker clones. Cancellation
/// unwinds with [`Cancelled`] at any degree; a non-cancellation worker
/// panic surfaces as `Err(MorselPanic)` after every worker has been
/// joined, with no pinned handle left on the coordinator's store.
pub fn run_join_parallel(
    algo: JoinAlgo,
    ctx: &mut JoinContext<'_>,
    spec: &TreeJoinSpec,
    opts: &JoinOptions,
    collect: bool,
    cancel: Option<CancelToken>,
    degree: usize,
) -> Result<ParallelRun, MorselPanic> {
    let mut morsels = Morsels {
        degree: if opts.hybrid_hashing {
            1
        } else {
            degree.max(1)
        },
        cancel: cancel.clone(),
        t0: ctx.store.clock().elapsed(),
        workers_io: IoStats::default(),
        workers_nanos: 0,
        workers_teardown: OpCounters::default(),
    };
    let mut ex = ExecContext::new(ctx.store);
    if let Some(token) = cancel {
        ex.set_cancel(token);
    }
    let mut report = JoinReport {
        pairs: collect.then(Vec::new),
        ..Default::default()
    };
    let (parents, children) = (ctx.parent_index, ctx.child_index);
    let (e, m, r) = (&mut ex, &mut morsels, &mut report);
    match algo {
        JoinAlgo::Nl => nl::run(e, parents, spec, m, r)?,
        JoinAlgo::Nojoin => nojoin::run(e, children, spec, opts, m, r)?,
        JoinAlgo::Phj if opts.hybrid_hashing => {
            hybrid::run(e, parents, children, spec, opts, BuildSide::Parents, r)
        }
        JoinAlgo::Chj if opts.hybrid_hashing => {
            hybrid::run(e, parents, children, spec, opts, BuildSide::Children, r)
        }
        JoinAlgo::Phj => phj::run(e, parents, children, spec, opts, m, r)?,
        JoinAlgo::Chj => chj::run(e, parents, children, spec, opts, m, r)?,
    }
    report.trace = ex.finish();
    Ok(ParallelRun {
        report,
        workers_io: morsels.workers_io,
        workers_nanos: morsels.workers_nanos,
        workers_teardown: morsels.workers_teardown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_contiguous_batch_aligned_and_cover() {
        for &(n, batch, degree) in &[
            (0usize, 8usize, 4usize),
            (1, 8, 4),
            (7, 8, 4),
            (8, 8, 4),
            (9, 8, 4),
            (1000, 8, 4),
            (1000, 1, 3),
            (1000, 1024, 2),
            (5, 1, 8),
        ] {
            let spans = morsel_spans(n, batch, degree);
            assert!(spans.len() <= degree);
            let mut expect = 0usize;
            for (i, &(lo, hi)) in spans.iter().enumerate() {
                assert_eq!(lo, expect, "contiguous at {n}/{batch}/{degree}");
                assert!(hi > lo);
                if i + 1 < spans.len() {
                    assert_eq!(hi % batch, 0, "aligned at {n}/{batch}/{degree}");
                }
                expect = hi;
            }
            assert_eq!(expect, n, "covering at {n}/{batch}/{degree}");
        }
    }

    #[test]
    fn spans_degree_one_is_everything() {
        assert_eq!(morsel_spans(100, 8, 1), vec![(0, 100)]);
    }

    type Job = Box<dyn FnOnce() -> u32 + Send>;

    /// The values of `outcomes`, re-raising the first panic.
    fn values<T>(outcomes: Vec<std::thread::Result<T>>) -> Vec<T> {
        outcomes
            .into_iter()
            .map(|o| o.unwrap_or_else(|p| resume_unwind(p)))
            .collect()
    }

    /// Four jobs; job 2 panics with "cell 2 exploded".
    fn one_bad_job() -> Vec<Job> {
        (0..4u32)
            .map(|i| {
                Box::new(move || {
                    if i == 2 {
                        panic!("cell 2 exploded");
                    }
                    i
                }) as Job
            })
            .collect()
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(fan_out(Vec::<Job>::new(), 4).is_empty());
        assert!(fan_out(Vec::<Job>::new(), 1).is_empty());
    }

    #[test]
    fn results_come_back_in_job_order() {
        for width in [1usize, 2, 3, 8, 64] {
            let jobs: Vec<_> = (0..17u64)
                .map(|i| {
                    move || {
                        // Stagger finish times so out-of-order arrival
                        // actually happens at widths above one.
                        std::thread::sleep(std::time::Duration::from_millis((17 - i) % 5));
                        i * i
                    }
                })
                .collect();
            assert_eq!(
                values(fan_out(jobs, width)),
                (0..17u64).map(|i| i * i).collect::<Vec<_>>(),
                "width {width}"
            );
        }
    }

    #[test]
    fn more_workers_than_jobs() {
        let jobs: Vec<_> = (0..3u32).map(|i| move || i + 100).collect();
        assert_eq!(values(fan_out(jobs, 32)), vec![100, 101, 102]);
    }

    #[test]
    fn no_more_jobs_than_width_runs_each_job_on_its_own_thread() {
        for width in [2usize, 3, 8] {
            let jobs: Vec<_> = (0..width.min(3))
                .map(|_| move || std::thread::current().id())
                .collect();
            let mut ids = values(fan_out(jobs, width));
            let n = ids.len();
            ids.sort_by_key(|id| format!("{id:?}"));
            ids.dedup();
            assert_eq!(ids.len(), n, "width {width}");
            assert!(!ids.contains(&std::thread::current().id()));
        }
    }

    #[test]
    #[should_panic(expected = "cell 2 exploded")]
    fn worker_panics_propagate() {
        values(fan_out(one_bad_job(), 2));
    }

    #[test]
    #[should_panic(expected = "inline panic")]
    fn inline_panics_propagate_too() {
        let jobs: Vec<Job> = vec![Box::new(|| panic!("inline panic"))];
        values(fan_out(jobs, 1));
    }

    #[test]
    fn a_panic_leaves_every_other_outcome_in_place() {
        for width in [1usize, 2, 4] {
            let mut outcomes = fan_out(one_bad_job(), width);
            let bad = outcomes.remove(2).expect_err("job 2 panics");
            assert_eq!(panic_message(bad.as_ref()), "cell 2 exploded");
            assert_eq!(values(outcomes), vec![0, 1, 3], "width {width}");
        }
    }
}
