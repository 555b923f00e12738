//! Admission-controlled scheduler: a bounded queue in front of a
//! fixed worker pool.
//!
//! The queue depth is the service's only defence against unbounded
//! latency under overload: when the queue is full, [`Scheduler::submit`]
//! *sheds* the job with a typed [`Overloaded`] instead of queueing it —
//! the client gets an immediate rejection it can retry or count, and
//! queued work keeps a bounded wait. (A query's own runtime budget is
//! separate: per-query deadlines, enforced cooperatively by
//! `ExecContext`.)
//!
//! **Depth 0** is the strictest admission policy: *shed unless a worker
//! is idle*. A job is admitted only when an already-waiting worker can
//! pick it up immediately (nothing ever waits in the queue beyond the
//! instant between `notify_one` and the worker waking); with every
//! worker busy, arrivals shed. It is neither a panic nor a silent
//! clamp to 1 — depth 1 would let one job queue behind busy workers.
//!
//! Admission decision and shed accounting happen under the same state
//! lock: a shed is counted at the moment its rejection is decided, so
//! racing submitters can neither double-count a shed nor sneak a job
//! into a queue that was full when they were rejected.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A unit of work for the pool.
pub type Job = Box<dyn FnOnce() + Send + 'static>;

/// Typed admission-control rejection: the queue was at its configured
/// depth when the job arrived.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Overloaded {
    /// The configured (and occupied) queue depth.
    pub queue_depth: u32,
}

impl std::fmt::Display for Overloaded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "admission queue full at depth {}", self.queue_depth)
    }
}

impl std::error::Error for Overloaded {}

struct State {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Workers currently parked in `available.wait` (not holding a job).
    idle: usize,
    /// Jobs shed by admission control. Kept inside the state lock so a
    /// shed is counted exactly once, at the same instant its rejection
    /// is decided.
    shed: u64,
}

struct Inner {
    state: Mutex<State>,
    available: Condvar,
    depth: usize,
    executed: AtomicU64,
}

/// Bounded worker pool with admission control.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Starts `workers` worker threads (floored at 1) behind a queue of
    /// at most `queue_depth` waiting jobs. Depth 0 means *shed unless a
    /// worker is idle* (see the module docs).
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
                idle: 0,
                shed: 0,
            }),
            available: Condvar::new(),
            depth: queue_depth,
            executed: AtomicU64::new(0),
        });
        let handles = (0..workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tq-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Self {
            inner,
            workers: Mutex::new(handles),
        }
    }

    /// Admits a job, or sheds it if the queue is at depth (for depth 0:
    /// if no idle worker could take it immediately).
    pub fn submit(&self, job: Job) -> Result<(), Overloaded> {
        let mut state = self.inner.state.lock().unwrap();
        let admit = !state.shutdown
            && if self.inner.depth == 0 {
                // Idle workers not yet claimed by an already-queued job.
                state.queue.len() < state.idle
            } else {
                state.queue.len() < self.inner.depth
            };
        if !admit {
            state.shed += 1;
            return Err(Overloaded {
                queue_depth: self.inner.depth as u32,
            });
        }
        state.queue.push_back(job);
        drop(state);
        self.inner.available.notify_one();
        Ok(())
    }

    /// Jobs shed by admission control so far.
    pub fn shed_count(&self) -> u64 {
        self.inner.state.lock().unwrap().shed
    }

    /// Jobs run to completion so far.
    pub fn executed_count(&self) -> u64 {
        self.inner.executed.load(Ordering::Relaxed)
    }

    /// Workers currently parked waiting for work (test observability;
    /// exact only while no submit is in flight).
    pub fn idle_workers(&self) -> usize {
        self.inner.state.lock().unwrap().idle
    }

    /// Stops admission, lets the workers drain the queue, and joins
    /// them. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut state = self.inner.state.lock().unwrap();
            state.shutdown = true;
        }
        self.inner.available.notify_all();
        let mut workers = self.workers.lock().unwrap();
        for handle in workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut state = inner.state.lock().unwrap();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state.idle += 1;
                state = inner.available.wait(state).unwrap();
                state.idle -= 1;
            }
        };
        // A panicking job must not take its worker with it: the pool
        // would shrink silently and, at one worker, go on admitting
        // jobs that nobody runs. Whoever waits on the job sees its
        // reply channel drop; the pool keeps serving.
        if catch_unwind(AssertUnwindSafe(job)).is_ok() {
            inner.executed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use std::time::{Duration, Instant};

    fn wait_for_idle(sched: &Scheduler, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while sched.idle_workers() < n {
            assert!(Instant::now() < deadline, "workers never went idle");
            std::thread::yield_now();
        }
    }

    #[test]
    fn runs_submitted_jobs() {
        let sched = Scheduler::new(4, 64);
        let (tx, rx) = channel();
        for i in 0..32u32 {
            let tx = tx.clone();
            sched.submit(Box::new(move || tx.send(i).unwrap())).unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        sched.shutdown();
        assert_eq!(sched.executed_count(), 32);
        assert_eq!(sched.shed_count(), 0);
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let sched = Scheduler::new(1, 4);
        sched.submit(Box::new(|| panic!("job failed"))).unwrap();
        let (tx, rx) = channel();
        sched.submit(Box::new(move || tx.send(7).unwrap())).unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)),
            Ok(7),
            "the only worker died with the panicking job"
        );
        sched.shutdown();
        assert_eq!(sched.executed_count(), 1, "only the second job completed");
    }

    #[test]
    fn full_queue_sheds_with_typed_error() {
        let sched = Scheduler::new(1, 2);
        // Block the single worker so the queue can fill.
        let (gate_tx, gate_rx) = channel::<()>();
        sched
            .submit(Box::new(move || {
                let _ = gate_rx.recv();
            }))
            .unwrap();
        // Give the worker a moment to take the blocking job, freeing
        // the queue to hold exactly `depth` waiters.
        std::thread::sleep(std::time::Duration::from_millis(20));
        sched.submit(Box::new(|| {})).unwrap();
        sched.submit(Box::new(|| {})).unwrap();
        let err = sched.submit(Box::new(|| {})).unwrap_err();
        assert_eq!(err, Overloaded { queue_depth: 2 });
        assert_eq!(sched.shed_count(), 1);
        gate_tx.send(()).unwrap();
        sched.shutdown();
        assert_eq!(sched.executed_count(), 3);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let sched = Scheduler::new(1, 64);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..16 {
            let done = Arc::clone(&done);
            sched
                .submit(Box::new(move || {
                    done.fetch_add(1, Ordering::Relaxed);
                }))
                .unwrap();
        }
        sched.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 16);
        // Post-shutdown submission sheds.
        assert!(sched.submit(Box::new(|| {})).is_err());
    }

    #[test]
    fn depth_zero_sheds_unless_a_worker_is_idle() {
        let sched = Scheduler::new(2, 0);
        wait_for_idle(&sched, 2);
        // Two gated jobs occupy both workers.
        let (started_tx, started_rx) = channel::<()>();
        let (gate_tx, gate_rx) = channel::<()>();
        let gate_rx = Arc::new(Mutex::new(gate_rx));
        for _ in 0..2 {
            let started = started_tx.clone();
            let gate = Arc::clone(&gate_rx);
            sched
                .submit(Box::new(move || {
                    started.send(()).unwrap();
                    let _ = gate.lock().unwrap().recv();
                }))
                .expect("idle workers must admit at depth 0");
        }
        started_rx.recv().unwrap();
        started_rx.recv().unwrap();
        // Both workers busy, nobody idle: depth 0 sheds immediately.
        let err = sched.submit(Box::new(|| {})).unwrap_err();
        assert_eq!(err, Overloaded { queue_depth: 0 });
        assert_eq!(sched.shed_count(), 1);
        // Release the workers; once one is idle again, admission resumes.
        gate_tx.send(()).unwrap();
        gate_tx.send(()).unwrap();
        wait_for_idle(&sched, 2);
        sched.submit(Box::new(|| {})).expect("idle again: admit");
        sched.shutdown();
        assert_eq!(sched.executed_count(), 3);
        assert_eq!(sched.shed_count(), 1);
    }

    #[test]
    fn racing_submits_account_sheds_exactly_once_each() {
        // One worker, blocked; queue of 1, pre-filled. Every further
        // submit must shed, and admitted + shed must exactly equal the
        // number of attempts — the check-then-count window is closed.
        let sched = Arc::new(Scheduler::new(1, 1));
        let (gate_tx, gate_rx) = channel::<()>();
        sched
            .submit(Box::new(move || {
                let _ = gate_rx.recv();
            }))
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let admitted = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let sched = Arc::clone(&sched);
                let admitted = Arc::clone(&admitted);
                std::thread::spawn(move || {
                    if sched.submit(Box::new(|| {})).is_ok() {
                        admitted.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let ok = admitted.load(Ordering::Relaxed);
        assert_eq!(
            ok + sched.shed_count(),
            8,
            "every racing submit is either admitted or counted shed, once"
        );
        gate_tx.send(()).unwrap();
        sched.shutdown();
        assert_eq!(sched.executed_count(), 1 + ok);
    }
}
